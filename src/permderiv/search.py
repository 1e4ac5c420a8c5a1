"""Exact enumeration over permutations with hereditary prefix pruning.

Every search walks the same way: it chooses values depth-first in ascending
order, masking used values and cutting subtrees as soon as a prefix fails;
because the predicate is hereditary (a failing prefix never extends to an
accepted permutation) the pruned walk visits exactly the permutations the
naive n!-filter would accept.  Collecting and optimizing differ only in what
they do at the walk's leaves.  The longest-prefix search takes a RowsRule
only and asks _first_rows, a walk with no prefix list and no leaf, for the
first sequence of a given length, n first, then n-1 and so on, skipping a
candidate that leaves no value with new differences in rows 1..3.

The shipped predicates are module-level and picklable; called on a prefix
they judge it whole.  Each walk is a bit recursion over one state layout, a
bitmask of used differences per difference-triangle row: _walk for collect,
optimize and plain predicates, _count_rows and _first_rows under a RowsRule,
and _extend for tasks.  None calls a RowsRule; each tests its rows inline, so
extending a prefix costs a few bit operations rather than a rescan; any other
predicate has no rows to test and _walk calls it on the full prefix at each
extension.  convex_prefix_ok is one: convexity's own
non-decreasing-differences rule, the one is_convex applies.

Every search walks its tree as tasks: _frontier yields, in lexicographic
order, the accepted sequences of about n/3 values (one value below order 9)
with the walker's state after each, and walking each task's subtree in turn
is the whole walk.  A plain predicate's walk is one task, the root, since it
never spreads and is never halved.  RowsRule searches take only the tasks
whose first value f is at most n//2, or the middle n//2+1 when n is odd.
Complement (v -> n+1-v) negates every difference, so it keeps each triangle
row repeat-free or not and maps the accepted permutations starting with f
onto those starting with n+1-f, reversing their lexicographic order.  A count
also uses reverse, which turns each row into that row reversed and negated.
For n >= 2 reverse makes the matches with p1 < pn half of all, and among
those reverse-complement, which maps (p1, pn) to (n+1-pn, n+1-p1), swaps the
ones with p1+pn < n+1 and the ones with p1+pn > n+1.  So a count sums
_count_rows, the walker's recursion with no prefix list and no leaf calls,
over the tasks, weighing each match by its last value pn: 4 when
f < pn < n+1-f, 2 when pn = n+1-f > f, 0 otherwise.  The middle's tasks
weigh nothing; order 1's one task counts once.  Under a row-1 rule the
recursion carries only the last value, not per-row tails.  Collect and
optimize use complement alone.  A collect lists the matches walked, then
those with f <= n//2 complemented, last first.
An optimize scores each match walked and, when f <= n//2, its complement,
once each, and keeps one (value, permutation): a scored one replaces it when
its value is strictly better, or equal and lexicographically smaller, so it
ends as the first best in ascending order whatever order the complements
come in.  Convex (complement makes it concave) and other predicates are not
reduced.  The longest-prefix search takes the first task that holds a
sequence of the length it looks for.

A count under a RowsRule and a longest-prefix walk run their tasks in one
loop over W workers (_spread): the calling process walks tasks 0, W, 2W, ...
itself, and W-1 forked children, each pinned to a CPU of its own, walk the
others, child w tasks w, w+W, ...; the parent reads their results in task
order, so every result and witness is the serial walk's, and no child
outlives the call.  W is the number of CPUs the process may use, from the
first task of a count at order 9 or more and of a longest-prefix walk at order
14 or more, when there are two or more, os can fork and no other thread runs;
otherwise W is 1, which is the walk in process.  Collect and optimize always
run in process: sending their lists of matches back would cost more than a
second CPU saves, and an objective, like a plain predicate, may be impure.

PROPERTIES is the one registry of properties and read_property the one reader
of their NAME=X text; `matches` counts or lists any searchable one, and the
CLI's check judges it with the same rule, so the two cannot disagree.
"""
from __future__ import annotations

import functools
import itertools
import marshal
import math
import operator
import os
import sys
from dataclasses import dataclass
from typing import Any, Callable, Iterable, NamedTuple, Sequence

from . import convexity, triangle
from .convexity import convex_prefix_ok
from .perm_core import Permutation, _parse_int, _shown

MAX_SEARCH_ORDER = 64
LIST_CAP = 10  # a list holds every match, so a walker list stops here by default

_MODES = ("count", "collect", "optimize")


@dataclass(frozen=True)
class SearchSpec:
    """One pruned search: order, hereditary prefix predicate, mode.

    prefix_ok receives each partial sequence (a list of 1-based values) and
    must be pure and monotone under truncation.  For mode="optimize",
    objective maps a complete permutation (a tuple) to a comparable value and
    direction is "max" or "min".
    """

    n: int
    prefix_ok: Callable[[Sequence[int]], bool]
    mode: str = "count"
    objective: Callable[[tuple[int, ...]], int] | None = None
    direction: str = "max"

    def __post_init__(self) -> None:
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_SEARCH_ORDER:
            raise ValueError(f"search order must be between 1 and {MAX_SEARCH_ORDER}, got {self.n}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")
        if self.mode == "optimize":
            if self.objective is None:
                raise ValueError("optimize mode needs an objective")
            if self.direction not in ("max", "min"):
                raise ValueError(f"direction must be 'max' or 'min', got {self.direction!r}")


class CountRow(NamedTuple):
    """One table row: order, n!, matching count, and percentage to one decimal."""

    n: int
    total: int
    count: int
    fraction: float


def _fraction(count: int, total: int) -> float:
    """count / total as a percentage, rounded half up to one decimal."""
    return (2000 * count + total) // (2 * total) / 10


def check_k(k: int, n: int) -> None:
    """Raise ValueError unless k is an int in 0..n-1, the k for which k-Costas is defined at order n."""
    if not isinstance(k, int) or not 0 <= k <= n - 1:
        raise ValueError(f"k must be between 0 and {n - 1}, got {k}")


@dataclass(frozen=True)
class RowsRule:
    """Rows 1..k of the prefix's difference triangle are repeat-free; every row when k is None.

    The walker tests rows inline with two bitmasks laid out in rows of 2n
    bits, row j at bit (j-1)*2n.  `used` holds difference d of row j at bit
    d + n.  `tails` holds, for each row j, bit n - prefix[-j]; shifted left
    by v it gives the differences v would add, so testing and recording them
    is one AND and one OR whatever the number of rows.  Before trying any
    candidate the walker drops the values whose row-1 difference is used:
    bit v of used >> n - prefix[-1] is that difference's bit.
    """

    k: int | None = None

    def __call__(self, prefix: Sequence[int]) -> bool:
        return triangle.distinct_rows(prefix, len(prefix) if self.k is None else self.k)


one_costas_prefix_ok = RowsRule(1)
costas_prefix_ok = RowsRule()


def k_costas_prefix_ok(k: int) -> RowsRule:
    """Prefix predicate for rows 1..k of the difference triangle being repeat-free."""
    return RowsRule(k)


def _root(n: int, first: int | None = None) -> tuple[int, int, int, int]:
    """The walker's state before any value: nothing used, every value free, and
    first (bit v for value v; every value when None) the values it may choose."""
    values = (1 << n + 1) - 2
    return 0, 0, values, values if first is None else first


def _walk(prefix_ok: Callable[[Sequence[int]], bool], n: int, leaf: Callable[[list], Any],
          state: tuple[int, int, int, int], prefix: Sequence[int] = ()) -> None:
    """Visit, depth-first in ascending order, the sequences of distinct values from 1..n
    that extend prefix, whose every nonempty prefix prefix_ok accepts, from the walker's
    state after prefix (see _root and _frontier).

    leaf(prefix) is called on each visited permutation, with the walker's own
    list.  One recursion serves every predicate: a RowsRule is tested inline
    (see its docstring) and never called; any other one has no rows to test
    (keep is 0) and is called on the walker's list, candidate appended.
    """
    prefix = list(prefix)
    append, pop = prefix.append, prefix.pop
    width, keep = _row_layout(prefix_ok, n)
    call = None if isinstance(prefix_ok, RowsRule) else prefix_ok

    def visit(used: int, tails: int, free: int, choices: int) -> None:
        if not free:
            return leaf(prefix)
        while choices:
            low = choices & -choices
            choices ^= low
            v = low.bit_length() - 1
            new = tails << v
            if used & new:
                continue
            append(v)
            rest = free ^ low
            new |= used
            if call is None or call(prefix):
                visit(new, (tails << width | 1 << n - v) & keep, rest, rest & ~(new >> n - v))
            pop()

    visit(*state)


def _row_layout(rule: Callable[[Sequence[int]], bool], n: int) -> tuple[int, int]:
    """The walker's bitmask row width for order n, and the mask of the rows rule checks (0 unless a RowsRule)."""
    rows = 0
    if isinstance(rule, RowsRule):
        rows = n if rule.k is None else max(0, min(rule.k, n))
    width = 2 * n
    return width, (1 << width * rows) - 1


def _count_rows(rule: RowsRule, n: int, prefix: tuple[int, ...], state: tuple[int, int, int, int]) -> int:
    """The order-n permutations rule accepts below a task, (prefix, state) as _frontier
    yields it, summed with a weight by last value: 4 when it is strictly between the
    first value f = prefix[0] and n+1-f, 2 when it is n+1-f > f, 0 otherwise.

    Reverse and complement keep rule, so over the tasks of first value f <= n//2
    and the odd middle that weighed sum is the count (see the module docstring).
    A task that is a whole permutation counts 1, unweighed: it is order 1's one
    task, and the weights need n >= 2.
    _walk's recursion keeping no prefix and calling no leaf: each call returns
    its subtree's sum, a candidate that leaves no free value in f+1..n+1-f is
    cut, and a call with one free value left answers with one bit test.  A
    row-1 rule (k == 1) carries only the last value in place of tails: choices
    already drops every value whose difference repeats, so each candidate just
    records its difference, and the value left after it is tested inline, with
    no call.
    """
    width, keep = _row_layout(rule, n)
    first = prefix[0]
    # the values a match may end with; each weighs 4, or 2 when it is edge
    window, edge = max(0, (1 << n + 2 - first) - (1 << first + 1)), 1 << n + 1 - first

    def count_row1(used: int, last: int, free: int, choices: int) -> int:
        total = 0
        while choices:
            low = choices & -choices
            choices ^= low
            rest = free ^ low
            if not rest & window:
                continue
            v = low.bit_length() - 1
            new = used | low << n - last
            if rest & rest - 1:
                total += count_row1(new, v, rest, rest & ~(new >> n - v))
            elif not rest & new >> n - v:
                total += 2 if rest == edge else 4
        return total

    def count(used: int, tails: int, free: int, choices: int) -> int:
        if not free & free - 1:  # the last value: does its difference in each row repeat?
            return (2 if free == edge else 4) if choices and not used & tails << free.bit_length() - 1 else 0
        total = 0
        while choices:
            low = choices & -choices
            choices ^= low
            v = low.bit_length() - 1
            new = tails << v
            rest = free ^ low
            if used & new or not rest & window:
                continue
            new |= used
            total += count(new, (tails << width | 1 << n - v) & keep, rest, rest & ~(new >> n - v))
        return total

    used, tails, free, choices = state
    if not free:  # the task is a whole permutation
        return 1
    if not free & window:
        return 0
    if rule.k == 1 and free & free - 1:  # count tests a lone last value
        return count_row1(used, prefix[-1], free, choices)
    return count(*state)


def _depth(n: int) -> int:
    """The frontier depth of an order-n walk: about n/3, so tasks shrink as the tree
    grows, or 1 below _SPREAD_ORDER, where no walk spreads and fewer tasks cost less."""
    return max(1, n // 3) if n >= _SPREAD_ORDER else 1


def _frontier(rule: Callable[[Sequence[int]], bool], n: int, depth: int, first: int | None = None):
    """Yield (prefix, state) for each sequence of depth values whose every prefix rule
    accepts and whose first value is in first (as _root), one at a time in ascending
    order: the sequence as a tuple and the walker's state after it.

    The tasks of a walk: walking each one's subtree in turn is the walk, as
    the walker visits the sequences shorter than depth before their subtrees.
    Sequences that end before depth are in no task.  A RowsRule is tested
    inline, as _walk tests it; any other rule gets one task, the root, so
    _walk is the only caller of a plain predicate.
    """
    return _extend(n, depth if isinstance(rule, RowsRule) else 0, *_row_layout(rule, n), (), _root(n, first))


def _extend(n: int, depth: int, width: int, keep: int, prefix: tuple[int, ...], state):
    # the walker's step, a generator: _frontier's recursion
    if len(prefix) == depth:
        yield prefix, state
        return
    used, tails, free, choices = state
    while choices:
        low = choices & -choices
        choices ^= low
        v = low.bit_length() - 1
        new = tails << v
        if used & new:
            continue
        rest = free ^ low
        new |= used
        yield from _extend(n, depth, width, keep, prefix + (v,),
                           (new, (tails << width | 1 << n - v) & keep, rest, rest & ~(new >> n - v)))


# A walk under a RowsRule spreads over forked children from its first task at
# order _SPREAD_ORDER or more for a count, _FIRST_HIT_SPREAD_ORDER or more for a
# longest-prefix walk, which stops at its first hit.  Forking and reaping a child
# costs a few ms, so a walk spreads once it makes tens of thousands of recursion
# calls (exact, counted as tests/test_exact_work.py counts them): the order-9 counts make 24,687
# (Costas) and 32,961 (one-Costas), and gamma(14) 25,896 first calls, while
# gamma(13) makes 1,761 and the order-8 counts at most 22,675 (k-Costas K = 0,
# whose calls test no row).  Whether a walk forks never depends on the machine's speed.
_SPREAD_ORDER = 9
_FIRST_HIT_SPREAD_ORDER = 14


def _cpus(n: int, spread_order: int) -> list[int]:
    """The CPUs an order-n walk under a RowsRule (pure, so a child can walk it for the
    parent) may spread over, at least two, or [] when it stays in process: n must be
    at least spread_order, os must fork and name the CPUs this process may use, and
    no other thread may run, so fork copies no lock some thread holds."""
    threading = sys.modules.get("threading")
    if n < spread_order or not hasattr(os, "fork") or threading is not None and threading.active_count() > 1:
        return []
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return cpus if len(cpus) > 1 else []


def _spread(n: int, tasks, work: Callable, spread_order: int):
    """Yield work(prefix, state) for each task of an order-n walk under a RowsRule, in task order.

    The tasks go to W workers, W = len(_cpus(n, spread_order)), or 1 when it names none:
    the parent walks tasks 0, W, 2W, ... and child w, forked and pinned to the
    w-th CPU, tasks w, w+W, ..., writing its results to a pipe the parent reads
    in task order.  So the results, and a consumer that stops at the first one
    it wants, are those of the serial walk whatever the split.  RuntimeError when
    a child exits without its last record.  When a pipe or fork fails (say EAGAIN
    at the process limit), before any task has run, the children forked so far
    are dropped and the tasks go on with one worker.  Every child is killed and
    reaped before this returns or raises; close the generator when stopping early.
    """
    for cpus in (_cpus(n, spread_order), ()):  # the second pass only when a pipe or fork fails
        readers, pids = [], []
        try:
            try:
                for index in range(1, len(cpus)):
                    import signal  # needed only to kill children: most walks never fork
                    fd, child_fd = os.pipe()
                    readers.append(os.fdopen(fd, "rb"))
                    try:
                        pid = os.fork()
                        if not pid:
                            _child(itertools.islice(tasks, index, None, len(cpus)), work, cpus[index], child_fd)
                        pids.append(pid)
                    finally:
                        os.close(child_fd)
            except OSError:  # no pipe or process to spare: the children go (below), the parent walks alone
                continue
            for prefix, state in itertools.islice(tasks, 0, None, len(readers) + 1):  # the parent's share
                yield work(prefix, state)
                for reader in readers:  # then the children's tasks up to the parent's next
                    try:
                        result = marshal.load(reader)
                    except EOFError:
                        raise RuntimeError("a search child process exited before reporting all its tasks") from None
                    if result is None:  # this child's share ended before its task: every task is done
                        return
                    yield result
            return
        finally:
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
            for reader in readers:
                reader.close()


def _child(tasks, work: Callable, cpu: int, fd: int) -> None:
    """A forked child's whole life: on cpu alone, write each task's result to fd, then None, and exit.

    Left to the scheduler, two children forked from one process were seen to
    share its CPU for their whole run (2 cores, Linux), so each child is
    pinned, to a CPU other than the first; the parent, which walks its own
    share, stays unpinned (pinning it to the first measured no different).
    """
    status = 1
    try:
        os.sched_setaffinity(0, (cpu,))
        for prefix, state in tasks:
            os.write(fd, marshal.dumps(work(prefix, state)))
        os.write(fd, marshal.dumps(None))
        status = 0
    finally:
        os._exit(status)


def _first_rows(rule: RowsRule, n: int, reach: int, prefix: tuple[int, ...], state) -> tuple[int, ...]:
    """The first sequence of reach values, extending a task (prefix, state) as _frontier
    yields it, whose every prefix rule accepts, or ().

    _walk's recursion with no prefix list or leaf: it counts down the values left
    and returns the path found.  A candidate, tested on every row, is skipped
    unless it is the last or its child's choices, filtered on rows 1..3 (last and
    last2 are 0 before they exist: an empty row), are not empty."""
    width, keep = _row_layout(rule, n)
    row2, row3 = width + n, 2 * width + n

    def first(left: int, last: int, last2: int, used: int, tails: int, free: int, choices: int) -> tuple[int, ...]:
        while choices:
            low = choices & -choices
            choices ^= low
            v = low.bit_length() - 1
            new = tails << v
            if used & new:
                continue
            if left == 1:
                return v,
            rest = free ^ low
            new |= used
            after = rest & ~(new >> n - v | new >> row2 - last | new >> row3 - last2)
            if after:
                found = first(left - 1, v, last, new, (tails << width | 1 << n - v) & keep, rest, after)
                if found:
                    return (v, *found)
        return ()

    left = reach - len(prefix)
    if not left:
        return prefix
    found = first(left, *(0, 0, *prefix)[:-3:-1], *state)
    return prefix + found if found else ()


def longest_prefix(rule: RowsRule, n: int) -> tuple[int, ...]:
    """The first, in ascending order, of the longest sequences of distinct values
    from 1..n whose every prefix rule accepts.

    Asks _first_rows for length m = n, n-1, ... and stops at the first sequence
    of that length: the walk's tasks run in order until one holds such a
    sequence.  When a length-n sequence exists that is one walk; otherwise each
    shorter m walks the tree again, at most n - len(result) more walks.  Raises
    TypeError unless rule is a RowsRule, since _first_rows tests rows alone and
    would accept every sequence under any other predicate, and ValueError, as
    SearchSpec does, unless 1 <= n <= MAX_SEARCH_ORDER.
    """
    if not isinstance(rule, RowsRule):
        raise TypeError(f"longest_prefix needs a RowsRule, got {type(rule).__name__}")
    SearchSpec(n=n, prefix_ok=rule)  # checks n
    for reach in range(n, 0, -1):
        tasks = _frontier(rule, n, min(_depth(n), reach))
        hits = _spread(n, tasks, functools.partial(_first_rows, rule, n, reach), _FIRST_HIT_SPREAD_ORDER)
        try:
            found = next(filter(None, hits), ())
        finally:
            hits.close()
        if found:
            return found
    return ()


# workers is accepted and ignored, here and in count_costas, only because the
# benchmark's workers=nproc ops (bench/workloads.py) pass it; it goes with them.
def enumerate(spec: SearchSpec, workers: int = 1):
    """Run the pruned search; result shape depends on spec.mode.

    count -> int; collect -> list of Permutation in ascending entry order;
    optimize -> (best value, Permutation witness) or None when nothing is
    accepted.
    """
    n, rule, mode = spec.n, spec.prefix_ok, spec.mode
    # complement symmetry, see the module docstring: first values 1..n//2 and the odd middle
    halved = isinstance(rule, RowsRule)
    tasks = _frontier(rule, n, _depth(n), (1 << (n + 1) // 2 + 1) - 2 if halved else None)
    if mode == "count" and halved:
        return sum(_spread(n, tasks, functools.partial(_count_rows, rule, n), _SPREAD_ORDER))
    better = operator.gt if spec.direction == "max" else operator.lt
    flip = (n + 1).__sub__
    count = 0
    found: list = []  # collect: every accepted tuple
    best = None  # optimize: the (value, tuple) of the first best in ascending order

    def leaf(prefix: list) -> None:
        nonlocal count, best
        if mode == "count":
            count += 1
        elif mode == "collect":
            found.append(tuple(prefix))
        else:
            full = tuple(prefix)
            for t in (full, tuple(map(flip, full))) if halved and 2 * full[0] <= n else (full,):
                value = spec.objective(t)
                if best is None or better(value, best[0]) or value == best[0] and t < best[1]:
                    best = value, t

    for prefix, state in tasks:
        _walk(rule, n, leaf, state, prefix)
    if mode == "count":
        return count
    if mode == "collect":
        if halved:  # the matches with first value above the middle: the first half's complemented, last first
            found += [tuple(map(flip, t)) for t in reversed(found) if 2 * t[0] <= n]
        return [Permutation._of(t) for t in found]
    return (best[0], Permutation._of(best[1])) if best else None


class Searchable(NamedTuple):
    """A searchable property: prefix rule, order cap, the K of k-costas=K, and list order cap."""

    rule: Callable[[Sequence[int]], bool]
    cap: int
    k: int | None = None
    list_cap: int = LIST_CAP

    def holds(self, p: Permutation) -> bool:
        """Whether p has the property; ValueError unless 0 <= k <= p.n-1."""
        if self.k is not None:
            check_k(self.k, p.n)
        return self.rule(p.entries)


def _k_costas(param: str) -> Searchable:
    """k-costas=K's property.  K = 0 matches all n! permutations, so it counts to 10 and lists to 8 (40,320)."""
    k = int_parameter("k-costas", param)
    return Searchable(RowsRule(k), 10, k, 8) if k == 0 else Searchable(RowsRule(k), 12, k)


def _lipschitz(param: str):
    from .variation import is_lipschitz

    return functools.partial(is_lipschitz, bound=int_parameter("lipschitz", param))


def _dpair(param: str):
    from . import dpair

    values = param.split(",")
    if len(values) != 2:
        raise ValueError(f"dpair property needs two values, got {_shown(param)!r}")
    return functools.partial(dpair.is_dpair_realization, pair=dpair.DPair(*(int_parameter("dpair", v) for v in values)))


# Each property by printed form, in check --help order.  A searchable one is a Searchable or a builder annotated
# to return one; convex has at most eight permutations per order, so it lists to its cap.  A check-only one is the
# package's public name of its predicate, resolved when a check runs it (costas imports search), or its builder.
PROPERTIES = {
    "one-costas": Searchable(one_costas_prefix_ok, 12),
    "costas": Searchable(costas_prefix_ok, 9),
    "k-costas=K": _k_costas,
    "convex": Searchable(convex_prefix_ok, 64, list_cap=64),
    "mid-alternating": "is_mid_alternating",
    "centrosymmetric": "is_centrosymmetric",
    "costas-centrosymmetric": "is_costas_centrosymmetric",
    "lipschitz=L": _lipschitz,
    "dpair=P,Q": _dpair,
}
TABLE_KINDS = tuple(form for form, entry in PROPERTIES.items() if isinstance(entry, Searchable))
PROPERTY_FORMS = tuple(form for form, entry in PROPERTIES.items()
                       if form in TABLE_KINDS or getattr(entry, "__annotations__", {}).get("return") == "Searchable")


def int_parameter(name: str, param: str) -> int:
    """The integer param of the property name=param, or ValueError naming the property."""
    return _parse_int(param, f"{name} property ", f"{name} property needs an integer, got")


def read_property(text: str, forms: Iterable[str]) -> Any:
    """The PROPERTIES entry text names among forms, or None; a NAME=X form's builder is applied to X."""
    name, sep, param = text.partition("=")
    for form in forms:
        if form.partition("=")[:2] == (name, sep):
            entry = PROPERTIES[form]
            return entry(param) if sep else entry
    return None


def _checked(text: str, n: int, collect: bool = False) -> Searchable:
    prop = read_property(text, PROPERTY_FORMS)
    if prop is None:
        raise ValueError(f"property {_shown(text)!r} is not searchable (use {', '.join(PROPERTY_FORMS[:-1])} or {PROPERTY_FORMS[-1]})")
    cap = min(prop.cap, prop.list_cap) if collect else prop.cap
    if not isinstance(n, int) or not 1 <= n <= cap:
        raise ValueError(f"order for {_shown(text)} must be 1..{cap}, got {n}")
    if prop.k is not None:
        check_k(prop.k, n)
    return prop


def matches(text: str, n: int, collect: bool = False):
    """The number of order-n permutations with the searchable property text names or, with
    collect, their list in ascending order.  ValueError first for a bad name, order (1..cap, at
    most list_cap for a list) or K.  Convex uses convexity.enumerate_convex (walked: 11 s at order 18)."""
    prop = _checked(text, n, collect)
    if prop.rule is convex_prefix_ok:
        found = sorted(convexity.enumerate_convex(n), key=lambda p: p.entries)
        return found if collect else len(found)
    return enumerate(SearchSpec(n=n, prefix_ok=prop.rule, mode="collect" if collect else "count"))


def count_row(text: str, n: int) -> CountRow:
    """The CountRow of matches(text, n) among the n! permutations."""
    count = matches(text, n)
    total = math.factorial(n)
    return CountRow(n, total, count, _fraction(count, total))


def count_one_costas(n: int) -> CountRow:
    """Count distinct-derivative permutations of order n, up to the one-costas cap."""
    return count_row("one-costas", n)


def count_costas(n: int, workers: int = 1) -> int:
    """Count Costas permutations of order n, up to the costas cap."""
    return matches("costas", n)


def table(kind: str, n_max: int) -> tuple[CountRow, ...]:
    """CountRow rows for n = 1..n_max for one of TABLE_KINDS."""
    if kind not in TABLE_KINDS:
        raise ValueError(f"kind must be one of {sorted(TABLE_KINDS)}, got {kind!r}")
    _checked(kind, n_max)
    return tuple(count_row(kind, n) for n in range(1, n_max + 1))
