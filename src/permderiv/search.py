"""Exact enumeration over permutations with hereditary prefix pruning.

One walker serves every search: it chooses values depth-first in ascending
order, masking used values and cutting subtrees as soon as a prefix fails;
because the predicate is hereditary (a failing prefix never extends to an
accepted permutation) the pruned walk visits exactly the permutations the
naive n!-filter would accept.  Counting, collecting, optimizing and the
longest-prefix search differ only in what they do at the walk's leaves, and
results are identical for any worker count: workers partition the tree by
first entry and their contributions are recombined in first-entry order.

The shipped predicates are rule objects.  Called on a prefix they judge it
whole; in the walker they step incrementally, carrying a bitmask of used
differences per difference-triangle row, so extending a prefix costs a few
bit operations rather than a rescan.  They are module-level and picklable.
Any other callable is called on the full prefix at each extension.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Decimal
from typing import Any, Callable, NamedTuple, Sequence

from . import convexity, triangle
from .perm_core import Permutation

MAX_SEARCH_ORDER = 64

_MODES = ("count", "collect", "optimize")
_TABLE_KINDS = {"one-costas": 12, "costas": 9, "convex": 64}


@dataclass(frozen=True)
class SearchSpec:
    """One pruned search: order, hereditary prefix predicate, acceptance, mode.

    prefix_ok receives each partial sequence (a list of 1-based values) and
    must be pure and monotone under truncation; accept, if given, filters
    complete permutations (as tuples).  For mode="optimize", objective maps a
    complete tuple to a comparable value and direction is "max" or "min".
    The shipped rules (one_costas_prefix_ok and its relatives) step
    incrementally and keep the spec picklable.
    """

    n: int
    prefix_ok: Callable[[Sequence[int]], bool]
    accept: Callable[[tuple[int, ...]], bool] | None = None
    mode: str = "count"
    objective: Callable[[tuple[int, ...]], int] | None = None
    direction: str = "max"

    def __post_init__(self) -> None:
        if not 1 <= self.n <= MAX_SEARCH_ORDER:
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
    q = (Decimal(count) * 100 / Decimal(total)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP)
    return float(q)


class PrefixRule:
    """A hereditary prefix predicate that can also extend a prefix incrementally."""

    def stepper(self, n: int) -> tuple[Any, Callable[[list, Any, int], Any]]:
        """The empty prefix's state, for values 1..n, and step(prefix, state, v):
        the state of prefix + [v], or None when that prefix fails."""
        raise NotImplementedError


@dataclass(frozen=True)
class RowsRule(PrefixRule):
    """Rows 1..k of the prefix's difference triangle are repeat-free; every row when k is None.

    The walker's state is a pair of bitmasks laid out in rows of 2n bits, row
    j at bit (j-1)*2n.  `used` holds difference d of row j at bit d + n.
    `tails` holds, for each row j, bit n - prefix[-j]; shifted left by v it
    gives the differences v would add, so testing and recording them is
    one AND and one OR whatever the number of rows.
    """

    k: int | None = None

    def __call__(self, prefix: Sequence[int]) -> bool:
        return triangle.distinct_rows(prefix, len(prefix) if self.k is None else self.k)

    def stepper(self, n: int) -> tuple[Any, Callable]:
        width = 2 * n
        rows = n if self.k is None else max(0, min(self.k, n))
        keep = (1 << rows * width) - 1

        def step(prefix: list, state: tuple[int, int], v: int) -> tuple[int, int] | None:
            used, tails = state
            new = tails << v
            if used & new:
                return None
            return used | new, (tails << width | 1 << n - v) & keep

        return (0, 0), step


@dataclass(frozen=True)
class ConvexRule(PrefixRule):
    """Consecutive differences of the prefix are non-decreasing."""

    def __call__(self, prefix: Sequence[int]) -> bool:
        return all(prefix[i + 1] - prefix[i] <= prefix[i + 2] - prefix[i + 1] for i in range(len(prefix) - 2))

    def stepper(self, n: int) -> tuple[Any, Callable]:
        def step(prefix: list, state: int, v: int) -> int | None:
            # state: the smallest difference the next value may add
            if not prefix:
                return -n
            d = v - prefix[-1]
            return d if d >= state else None

        return -n, step


one_costas_prefix_ok = RowsRule(1)
costas_prefix_ok = RowsRule()
convex_prefix_ok = ConvexRule()


def k_costas_prefix_ok(k: int) -> RowsRule:
    """Prefix predicate for rows 1..k of the difference triangle being repeat-free."""
    return RowsRule(k)


def _stepper(prefix_ok: Callable[[Sequence[int]], bool], n: int) -> tuple[Any, Callable]:
    if isinstance(prefix_ok, PrefixRule):
        return prefix_ok.stepper(n)

    def step(prefix: list, state: tuple, v: int) -> tuple | None:
        prefix.append(v)
        ok = prefix_ok(prefix)
        prefix.pop()
        return state if ok else None

    return (), step


def _walk(prefix_ok: Callable[[Sequence[int]], bool], n: int, leaf: Callable[[list], Any],
          first: int | None = None, reach: int | None = None) -> None:
    """Visit, depth-first in ascending order, the sequences of distinct values from 1..n
    whose every nonempty prefix prefix_ok accepts, starting with first when it is given.

    leaf(prefix) is called on each visited sequence of length at least reach
    (default n: the permutations), with the walker's own list; a true return
    ends the walk.
    """
    root, step = _stepper(prefix_ok, n)
    reach = n if reach is None else reach
    prefix: list[int] = []

    def visit(state: Any, free: int, choices: int) -> bool:
        if len(prefix) >= reach and leaf(prefix):
            return True
        while choices:
            low = choices & -choices
            choices ^= low
            v = low.bit_length() - 1
            child = step(prefix, state, v)
            if child is None:
                continue
            prefix.append(v)
            rest = free ^ low
            stop = visit(child, rest, rest)
            prefix.pop()
            if stop:
                return True
        return False

    values = (1 << n + 1) - 2
    visit(root, values, values if first is None else 1 << first)


def longest_prefix(prefix_ok: Callable[[Sequence[int]], bool], n: int) -> tuple[int, ...]:
    """The first, in ascending order, of the longest sequences of distinct values
    from 1..n whose every prefix prefix_ok accepts; the walk stops at length n."""
    best: tuple[int, ...] = ()

    def leaf(prefix: list) -> bool:
        nonlocal best
        if len(prefix) > len(best):
            best = tuple(prefix)
        return len(best) == n

    _walk(prefix_ok, n, leaf, reach=1)
    return best


def _better(direction: str) -> Callable[[Any, Any], bool]:
    return (lambda a, b: a > b) if direction == "max" else (lambda a, b: a < b)


def _subtree(spec: SearchSpec, first: int):
    """The mode's result over the accepted permutations that start with first."""
    accept, mode, better = spec.accept, spec.mode, _better(spec.direction)
    count = 0
    found: list = []  # collect: every accepted tuple; optimize: the best (value, tuple)

    def leaf(prefix: list) -> None:
        nonlocal count
        full = tuple(prefix)
        if accept is not None and not accept(full):
            return
        count += 1
        if mode == "collect":
            found.append(full)
        elif mode == "optimize":
            value = spec.objective(full)
            if not found or better(value, found[0][0]):
                found[:] = [(value, full)]

    _walk(spec.prefix_ok, spec.n, leaf, first=first)
    if mode == "count":
        return count
    return found if mode == "collect" else (found[0] if found else None)


def _subtree_results(spec: SearchSpec, workers: int) -> list:
    firsts = range(1, spec.n + 1)
    if workers <= 1:
        return [_subtree(spec, f) for f in firsts]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(lambda f: _subtree(spec, f), firsts))


def enumerate(spec: SearchSpec, workers: int = 1):
    """Run the pruned search; result shape depends on spec.mode.

    count -> int; collect -> list of Permutation in ascending entry order;
    optimize -> (best value, Permutation witness) or None when nothing is
    accepted.  Results are independent of the worker count.
    """
    parts = _subtree_results(spec, workers)
    if spec.mode == "count":
        return sum(parts)
    if spec.mode == "collect":
        return [Permutation(t) for part in parts for t in part]
    best: tuple[int, tuple[int, ...]] | None = None
    better = _better(spec.direction)
    for part in parts:
        if part is not None and (best is None or better(part[0], best[0])):
            best = part
    if best is None:
        return None
    return best[0], Permutation(best[1])


def count_one_costas(n: int, workers: int = 1) -> CountRow:
    """Count distinct-derivative permutations of order n (practical bound n <= 12)."""
    if not 1 <= n <= 12:
        raise ValueError(f"order must be between 1 and 12, got {n}")
    spec = SearchSpec(n=n, prefix_ok=one_costas_prefix_ok)
    count = enumerate(spec, workers=workers)
    total = math.factorial(n)
    return CountRow(n, total, count, _fraction(count, total))


def count_costas(n: int, workers: int = 1) -> int:
    """Count Costas permutations of order n (practical bound n <= 9)."""
    if not 1 <= n <= 9:
        raise ValueError(f"order must be between 1 and 9, got {n}")
    spec = SearchSpec(n=n, prefix_ok=costas_prefix_ok)
    return enumerate(spec, workers=workers)


def table(kind: str, n_max: int, workers: int = 1) -> tuple[CountRow, ...]:
    """CountRow rows for n = 1..n_max for one of the shipped predicates."""
    if kind not in _TABLE_KINDS:
        raise ValueError(f"kind must be one of {sorted(_TABLE_KINDS)}, got {kind!r}")
    if not 1 <= n_max <= _TABLE_KINDS[kind]:
        raise ValueError(f"max order for {kind} tables is {_TABLE_KINDS[kind]}, got {n_max}")
    rows = []
    for n in range(1, n_max + 1):
        if kind == "one-costas":
            rows.append(count_one_costas(n, workers=workers))
            continue
        if kind == "costas":
            count = count_costas(n, workers=workers)
        else:
            count = len(convexity.enumerate_convex(n))
        total = math.factorial(n)
        rows.append(CountRow(n, total, count, _fraction(count, total)))
    return tuple(rows)
