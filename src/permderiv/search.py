"""Exact enumeration over permutations with hereditary prefix pruning.

One walker serves every search: it chooses values depth-first in ascending
order, masking used values and cutting subtrees as soon as a prefix fails;
because the predicate is hereditary (a failing prefix never extends to an
accepted permutation) the pruned walk visits exactly the permutations the
naive n!-filter would accept.  Collecting, optimizing and the longest-prefix
search differ only in what they do at the walk's leaves.  The longest-prefix
search asks each walk for one sequence of a given length, n first, then n-1
and so on, so it calls back once, on its result, not at every node.

The shipped predicates are module-level and picklable; called on a prefix
they judge it whole.  The walker is one bit recursion carrying a bitmask of
used differences per difference-triangle row.  It never calls a RowsRule but
tests its rows inline, so extending a prefix costs a few bit operations
rather than a rescan; any other predicate has no rows to test and is called
on the full prefix at each extension.  convex_prefix_ok is one: convexity's
own non-decreasing-differences rule, the one is_convex applies.

RowsRule counts and collects walk half the tree.  Complement (v -> n+1-v)
negates every difference, so it keeps each triangle row repeat-free or not
and maps the accepted permutations starting with f onto those starting with
n+1-f, reversing their lexicographic order.  A count is twice that of the
subtrees f <= n//2, plus subtree n//2+1 when n is odd.  A collect lists the
same subtrees, then the first n//2 of them complemented and last first,
which are subtrees n//2+1 (n even) or n//2+2 (n odd) to n in order.
Optimize walks the whole tree for its first-best witness, as its objective
has no symmetry; convex (complement makes it concave) and other predicates
are not reduced.

Counts and the longest-prefix search walk their tree as tasks: _frontier
yields, in lexicographic order, the accepted sequences of about n/3 values
(one value below order 9) with the walker's state after each, and walking
each task's subtree in turn is the whole walk.  A count weighs each task 2 or 1 by its first value, as
above, and sums _count_rows, the walker's recursion with no prefix list and
no leaf calls, over the tasks; the longest-prefix search takes the first
task that holds a sequence of the length it looks for.  Tasks run in the
calling process.  A walk under a RowsRule of order 9 or more still running
after 25 ms forks one child per CPU it may use for the rest (_spread), when
there are two or more, os can fork and no other thread runs; the parent
reads their results in task order, so every result and witness is the
serial walk's, and no child outlives the call.  Collect and optimize always
run in process.

SEARCHABLE is the one registry of searchable properties, each with its rule
and order cap; `matches` counts or lists any of them, and the CLI's check
judges them with the same rules, so the two cannot disagree.
"""
from __future__ import annotations

import itertools
import marshal
import math
import operator
import os
import reprlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from . import convexity, triangle
from .convexity import convex_prefix_ok
from .perm_core import Permutation, _too_long

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
          state: tuple[int, int, int, int], prefix: Sequence[int] = (), reach: int | None = None) -> None:
    """Visit, depth-first in ascending order, the sequences of distinct values from 1..n
    that extend prefix, whose every nonempty prefix prefix_ok accepts, from the walker's
    state after prefix (see _root and _frontier).

    leaf(prefix) is called on each visited sequence of length at least reach
    (default n: the permutations), with the walker's own list; a true return
    ends the walk.  One recursion serves every predicate: a RowsRule is tested
    inline (see its docstring) and never called; any other one has no rows to
    test (keep is 0) and is called on the walker's list, candidate appended.
    """
    reach = n if reach is None else reach
    prefix = list(prefix)
    append, pop = prefix.append, prefix.pop
    width, keep = _row_layout(prefix_ok, n)
    call = None if isinstance(prefix_ok, RowsRule) else prefix_ok

    def visit(used: int, tails: int, free: int, choices: int) -> bool:
        if len(prefix) >= reach and leaf(prefix):
            return True
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
            if (call is None or call(prefix)) and visit(
                    new, (tails << width | 1 << n - v) & keep, rest, rest & ~(new >> n - v)):
                return True
            pop()
        return False

    visit(*state)


def _row_layout(rule: Callable[[Sequence[int]], bool], n: int) -> tuple[int, int]:
    """The walker's bitmask row width for order n, and the mask of the rows rule checks (0 unless a RowsRule)."""
    rows = 0
    if isinstance(rule, RowsRule):
        rows = n if rule.k is None else max(0, min(rule.k, n))
    width = 2 * n
    return width, (1 << width * rows) - 1


def _count_rows(rule: RowsRule, n: int, state: tuple[int, int, int, int]) -> int:
    """The number of order-n permutations rule accepts below the walker's state.

    _walk's recursion keeping no prefix and calling no leaf: each call returns
    its subtree's count, and a call with one free value left answers with one
    bit test.
    """
    width, keep = _row_layout(rule, n)

    def count(used: int, tails: int, free: int, choices: int) -> int:
        if not free & free - 1:  # the last value: does its difference in each row repeat?
            return 1 if choices and not used & tails << free.bit_length() - 1 else 0
        total = 0
        while choices:
            low = choices & -choices
            choices ^= low
            v = low.bit_length() - 1
            new = tails << v
            if used & new:
                continue
            rest = free ^ low
            new |= used
            total += count(new, (tails << width | 1 << n - v) & keep, rest, rest & ~(new >> n - v))
        return total

    return count(*state) if state[2] else 1  # no free value: the state is a whole permutation


def _depth(n: int) -> int:
    """The frontier depth of an order-n walk: about n/3, so tasks shrink as the tree
    grows, or 1 below _SPREAD_ORDER, where no walk spreads and fewer tasks cost less."""
    return max(1, n // 3) if n >= _SPREAD_ORDER else 1


def _frontier(rule: Callable[[Sequence[int]], bool], n: int, depth: int, first: int | None = None):
    """Yield (prefix, state) for each sequence of depth values whose every prefix rule
    accepts and whose first value is in first (as _root), one at a time in ascending
    order: the sequence as a tuple and the walker's state after it.

    The tasks of a walk: walking each one's subtree in turn is the walk, as
    the walker visits the sequences shorter than depth before their subtrees
    and calls a plain predicate in the same order.  Sequences that end before
    depth are in no task.
    """
    return _extend(rule, n, depth, *_row_layout(rule, n), (), _root(n, first))


def _extend(rule, n: int, depth: int, width: int, keep: int, prefix: tuple[int, ...], state):
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
        task = prefix + (v,)
        if isinstance(rule, RowsRule) or rule(list(task)):
            yield from _extend(rule, n, depth, width, keep, task,
                               (new, (tails << width | 1 << n - v) & keep, rest, rest & ~(new >> n - v)))


# A walk under a RowsRule of order _SPREAD_ORDER or more still running after
# _SPREAD_AFTER_S gives its remaining tasks to forked children.  Forking and
# reaping two children costs a few ms.  Below order 9 the largest walk,
# k-Costas K = 0 at order 8, takes about 15 ms, and gamma(13) about 4 ms
# (2-core x86 VM, Python 3.11), so they stay in process.
_SPREAD_ORDER = 9
_SPREAD_AFTER_S = 0.025


def _cpus(rule: Callable[[Sequence[int]], bool], n: int) -> list[int]:
    """The CPUs a walk may spread over, at least two, or [] when it stays in process:
    rule must be a RowsRule (pure, so a child can walk it for the parent), n at
    least _SPREAD_ORDER, and os must fork and name the CPUs this process may use."""
    if not isinstance(rule, RowsRule) or n < _SPREAD_ORDER or not hasattr(os, "fork"):
        return []
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    return cpus if len(cpus) > 1 else []


def _single_threaded() -> bool:
    """Whether no other thread runs, so fork copies no lock some thread holds."""
    threading = sys.modules.get("threading")
    return threading is None or threading.active_count() == 1


def _spread(rule: Callable[[Sequence[int]], bool], n: int, tasks, work: Callable):
    """Yield work(prefix, state) for each task of an order-n walk under rule, in task order.

    Tasks run in process until the walk has run _SPREAD_AFTER_S; then, if the
    walk may spread over W CPUs (_cpus) and no other thread runs, W forked
    children take the rest, child w tasks w, w+W, ..., and the results are
    read back in task order.  So the results, and a consumer that stops at the
    first one it wants, are those of the serial walk whatever the split.
    Close the generator when stopping early: that kills the children.
    """
    tasks = iter(tasks)
    cpus = _cpus(rule, n)
    deadline = time.perf_counter() + _SPREAD_AFTER_S
    for prefix, state in tasks:
        yield work(prefix, state)
        if cpus and time.perf_counter() > deadline and _single_threaded():
            yield from _forked(tasks, work, cpus)
            return


def _forked(tasks, work: Callable, cpus: list[int]):
    """_spread's tasks over one forked child per CPU of cpus, each writing its results
    to a pipe; RuntimeError when a child exits without its last record.  Every child
    is killed and reaped before this returns or raises."""
    import signal  # needed only here: most walks never fork

    readers, pids = [], []
    try:
        for index in range(len(cpus)):
            fd, child_fd = os.pipe()
            readers.append(os.fdopen(fd, "rb"))
            try:
                pid = os.fork()
                if not pid:
                    _child(itertools.islice(tasks, index, None, len(cpus)), work, cpus[index], child_fd)
                pids.append(pid)
            finally:
                os.close(child_fd)
        for reader in itertools.cycle(readers):  # task j is child j % W's
            try:
                result = marshal.load(reader)
            except EOFError:
                raise RuntimeError("a search child process exited before reporting all its tasks") from None
            if result is None:  # this child's share ended before task j: every task is done
                return
            yield result
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for reader in readers:
            reader.close()


def _child(tasks, work: Callable, cpu: int, fd: int) -> None:
    """A forked child's whole life: on cpu alone, write each task's result to fd, then None, and exit.

    Left to the scheduler, two children forked from one process were seen to
    share its CPU for their whole run (2 cores, Linux), so each is pinned.
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


def _first_reaching(rule: Callable[[Sequence[int]], bool], n: int, reach: int,
                    prefix: tuple[int, ...], state) -> tuple[int, ...]:
    """The first sequence of at least reach values the walk from (prefix, state) visits, or ()."""
    found: list[tuple[int, ...]] = []
    _walk(rule, n, lambda seq: found.append(tuple(seq)) or True, state, prefix, reach)
    return found[0] if found else ()


def longest_prefix(prefix_ok: Callable[[Sequence[int]], bool], n: int) -> tuple[int, ...]:
    """The first, in ascending order, of the longest sequences of distinct values
    from 1..n whose every prefix prefix_ok accepts.

    Walks for length m = n, n-1, ... and stops at the first sequence of that
    length, so the walk calls back once, on the result: the walk's tasks run
    in order until one holds such a sequence.  When a length-n sequence exists
    that is one walk; otherwise each shorter m walks the tree again, at most
    n - len(result) more walks.  Raises ValueError, as SearchSpec does, unless
    1 <= n <= MAX_SEARCH_ORDER.
    """
    spec = SearchSpec(n=n, prefix_ok=prefix_ok)
    rule = spec.prefix_ok
    for reach in range(n, 0, -1):
        tasks = _frontier(rule, n, min(_depth(n), reach))
        hits = _spread(rule, n, tasks,
                       lambda prefix, state, reach=reach: _first_reaching(rule, n, reach, prefix, state))
        try:
            found = next(filter(None, hits), ())
        finally:
            hits.close()
        if found:
            return found
    return ()


def _subtree(spec: SearchSpec, first: int | None = None):
    """The mode's result over the accepted permutations whose first value is in first (as _root)."""
    mode = spec.mode
    better = operator.gt if spec.direction == "max" else operator.lt
    count = 0
    found: list = []  # collect: every accepted tuple; optimize: the best (value, tuple)

    def leaf(prefix: list) -> None:
        nonlocal count
        if mode == "count":
            count += 1
        elif mode == "collect":
            found.append(tuple(prefix))
        else:
            full = tuple(prefix)
            value = spec.objective(full)
            if not found or better(value, found[0][0]):
                found[:] = [(value, full)]

    _walk(spec.prefix_ok, spec.n, leaf, _root(spec.n, first))
    if mode == "count":
        return count
    return found if mode == "collect" else (found[0] if found else None)


# workers is accepted and ignored, here and in count_costas, only because the
# benchmark's workers=nproc ops (bench/workloads.py) pass it; it goes with them.
def enumerate(spec: SearchSpec, workers: int = 1):
    """Run the pruned search; result shape depends on spec.mode.

    count -> int; collect -> list of Permutation in ascending entry order;
    optimize -> (best value, Permutation witness) or None when nothing is
    accepted.
    """
    n, rule = spec.n, spec.prefix_ok
    # complement symmetry, see the module docstring: first values 1..n//2,
    # and the middle one when n is odd
    low, middle = (1 << n // 2 + 1) - 2, 1 << n // 2 + 1 if n % 2 else 0
    if spec.mode == "count" and isinstance(rule, RowsRule):
        # a task counts twice when its first value is at most n//2, once when the middle
        return sum(_spread(rule, n, _frontier(rule, n, _depth(n), low | middle),
                           lambda prefix, state: (2 if 2 * prefix[0] <= n else 1) * _count_rows(rule, n, state)))
    if spec.mode == "collect" and isinstance(rule, RowsRule):
        # complement reverses lexicographic order, so the subtrees f > (n+1)/2
        # are the first half's matches complemented, last first
        half = _subtree(spec, low)
        flip = (n + 1).__sub__
        result = half + _subtree(spec, middle) + [tuple(map(flip, t)) for t in reversed(half)]
    else:
        result = _subtree(spec)
    if spec.mode == "collect":
        return [Permutation._of(t) for t in result]
    if spec.mode == "optimize" and result is not None:
        return result[0], Permutation._of(result[1])
    return result


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


# Each searchable property by name; k-costas=K maps K to its property.  K = 0
# matches all n! permutations, so it counts to 10 and lists to 8 (40,320);
# convex has at most eight permutations per order, so it lists to its cap.
SEARCHABLE = {
    "one-costas": Searchable(one_costas_prefix_ok, 12),
    "costas": Searchable(costas_prefix_ok, 9),
    "k-costas": lambda k: Searchable(RowsRule(k), 10, k, 8) if k == 0 else Searchable(RowsRule(k), 12, k),
    "convex": Searchable(convex_prefix_ok, 64, list_cap=64),
}
TABLE_KINDS = tuple(name for name, entry in SEARCHABLE.items() if isinstance(entry, Searchable))
PROPERTY_FORMS = tuple(name if name in TABLE_KINDS else f"{name}=K" for name in SEARCHABLE)


def int_parameter(name: str, param: str) -> int:
    """The integer param of the property name=param, or ValueError naming the property
    and showing at most the ends of a long param."""
    try:
        return int(param)
    except ValueError:
        if _too_long(param):
            raise ValueError(f"integer out of range: {name} property {_too_long(param)}") from None
        raise ValueError(f"{name} property needs an integer, got {reprlib.repr(param)}") from None


def searchable(text: str) -> Searchable | None:
    """The searchable property text names, or None; ValueError for a K that is no integer."""
    name, sep, param = text.partition("=")
    entry = SEARCHABLE.get(name)
    if isinstance(entry, Searchable):
        return None if sep else entry
    return entry(int_parameter(name, param)) if entry and sep else None


def _checked(text: str, n: int, collect: bool = False) -> Searchable:
    prop = searchable(text)
    if prop is None:
        raise ValueError(f"property {text!r} is not searchable (use {', '.join(PROPERTY_FORMS[:-1])} or {PROPERTY_FORMS[-1]})")
    cap = min(prop.cap, prop.list_cap) if collect else prop.cap
    if not isinstance(n, int) or not 1 <= n <= cap:
        raise ValueError(f"order for {text} must be 1..{cap}, got {n}")
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
