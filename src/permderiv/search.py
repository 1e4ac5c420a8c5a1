"""Exact enumeration over permutations with hereditary prefix pruning.

One walker serves every search: it chooses values depth-first in ascending
order, masking used values and cutting subtrees as soon as a prefix fails;
because the predicate is hereditary (a failing prefix never extends to an
accepted permutation) the pruned walk visits exactly the permutations the
naive n!-filter would accept.  Collecting, optimizing and the longest-prefix
search differ only in what they do at the walk's leaves.  The longest-prefix
search asks each walk for one sequence of a given length, n first, then n-1
and so on, so it calls back once, on its result, not at every node.  Every
walk runs in the calling thread.

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
subtrees f <= n//2, plus subtree n//2+1 when n is odd; both are counted by
_count_rows, the walker's recursion with no prefix list and no leaf calls.
A collect lists the same subtrees, then the first n//2 of them complemented
and last first, which are subtrees n//2+1 (n even) or n//2+2 (n odd) to n
in order.  Optimize walks the whole tree for its first-best witness, as its
objective has no symmetry; convex (complement makes it concave) and other
predicates are not reduced.

SEARCHABLE is the one registry of searchable properties, each with its rule
and order cap; `matches` counts or lists any of them, and the CLI's check
judges them with the same rules, so the two cannot disagree.
"""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple, Sequence

from . import convexity, triangle
from .convexity import convex_prefix_ok
from .perm_core import Permutation

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


def _walk(prefix_ok: Callable[[Sequence[int]], bool], n: int, leaf: Callable[[list], Any],
          roots: int | None = None, reach: int | None = None) -> None:
    """Visit, depth-first in ascending order, the sequences of distinct values from 1..n
    whose every nonempty prefix prefix_ok accepts and whose first value is a bit of
    roots (bit v for value v; every value when roots is None).

    leaf(prefix) is called on each visited sequence of length at least reach
    (default n: the permutations), with the walker's own list; a true return
    ends the walk.  One recursion serves every predicate: a RowsRule is tested
    inline (see its docstring) and never called; any other one has no rows to
    test (keep is 0) and is called on the walker's list, candidate appended.
    """
    reach = n if reach is None else reach
    prefix: list[int] = []
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

    values = (1 << n + 1) - 2
    visit(0, 0, values, values if roots is None else roots)


def _row_layout(rule: Callable[[Sequence[int]], bool], n: int) -> tuple[int, int]:
    """The walker's bitmask row width for order n, and the mask of the rows rule checks (0 unless a RowsRule)."""
    rows = 0
    if isinstance(rule, RowsRule):
        rows = n if rule.k is None else max(0, min(rule.k, n))
    width = 2 * n
    return width, (1 << width * rows) - 1


def _count_rows(rule: RowsRule, n: int, roots: int) -> int:
    """The number of order-n permutations rule accepts whose first value is a bit of roots.

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

    return count(0, 0, (1 << n + 1) - 2, roots)


def longest_prefix(prefix_ok: Callable[[Sequence[int]], bool], n: int) -> tuple[int, ...]:
    """The first, in ascending order, of the longest sequences of distinct values
    from 1..n whose every prefix prefix_ok accepts.

    Walks for length m = n, n-1, ... and stops at the first sequence of that
    length, so the walk calls back once, on the result.  When a length-n
    sequence exists that is one walk; otherwise each shorter m walks the
    tree again, at most n - len(result) more walks.  Raises ValueError, as
    SearchSpec does, unless 1 <= n <= MAX_SEARCH_ORDER.
    """
    spec = SearchSpec(n=n, prefix_ok=prefix_ok)
    found: list[tuple[int, ...]] = []
    for reach in range(n, 0, -1):
        _walk(spec.prefix_ok, n, lambda prefix: found.append(tuple(prefix)) or True, reach=reach)
        if found:
            return found[0]
    return ()


def _subtree(spec: SearchSpec, roots: int | None = None):
    """The mode's result over the accepted permutations whose first value is a bit of roots, or all."""
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

    _walk(spec.prefix_ok, spec.n, leaf, roots=roots)
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
        return 2 * _count_rows(rule, n, low) + _count_rows(rule, n, middle)
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
    """The integer param of the property name=param, or ValueError naming the property."""
    try:
        return int(param)
    except ValueError:
        raise ValueError(f"{name} property needs an integer, got {param!r}") from None


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
