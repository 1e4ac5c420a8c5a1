"""Convex permutations: non-decreasing derivatives.

A convex permutation matrix can be grown column by column: the rows holding
1s in the first k columns always form an interval, and each new column may
only extend that interval at one of its two ends, subject to keeping the
row-wise column assignment convex.  Exhausting those choices enumerates all
convex permutations, which form four families (identity, two near-cyclic
shifts, and the rotated zigzag) plus their reversals.

enumerate_convex tests each extension in O(1).  Only the interval's first and
last column differences can be broken by a new column c: a row added at the
front gives the new first difference col[low] - c, allowed when at most the
old first; one added at the back gives c - col[high], allowed when at least
the old last.  extension_rows re-checks the whole fill instead, for the
step-by-step Algorithm 1 and the verify checks.

PartialColumnFill, and algorithm1 on its chooser's start row, judge rows by
perm_core's one partial-permutation gate, _distinct_within: an int n and
distinct ints of 1..n.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from .perm_core import Permutation, _distinct_within, check_order, inverse, reverse
from .variation import pi_star

MAX_CONVEX_ORDER = 512  # enumerate_convex recurses once per column: about 0.4 s at the cap, CPython 3.11


class StateNotKConvex(ValueError):
    """The partial fill does not satisfy the k-convexity clauses."""


@dataclass(frozen=True)
class PartialColumnFill:
    """The first k columns of an order-n 0/1 matrix, one 1 per filled column.

    rows_by_column[c] is the row holding the 1 in column c+1; the remaining
    columns are all zero.
    """

    n: int
    rows_by_column: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows_by_column", tuple(self.rows_by_column))
        rows = self.rows_by_column
        if not rows:
            raise ValueError(f"need between 1 and {self.n} filled columns, got 0")
        if not _distinct_within(rows, self.n):
            raise ValueError(f"rows {rows} are not distinct rows in 1..{self.n!r}")

    @property
    def k(self) -> int:
        return len(self.rows_by_column)


def convex_prefix_ok(values: Sequence[int]) -> bool:
    """True iff the consecutive differences of values are non-decreasing (vacuous for fewer than 3)."""
    return all(values[i + 1] - values[i] <= values[i + 2] - values[i + 1] for i in range(len(values) - 2))


def is_convex(p: Permutation) -> bool:
    """True iff consecutive differences are non-decreasing (vacuous for n <= 2)."""
    return convex_prefix_ok(p.entries)


def interval_rows(state: PartialColumnFill) -> frozenset[int]:
    """The set of rows occupied by the filled columns."""
    return frozenset(state.rows_by_column)


def is_k_convex(state: PartialColumnFill) -> bool:
    """Occupied rows form an interval and their column assignment is convex.

    One 1 per filled column is guaranteed by the type; this checks the
    interval clause and that column differences between consecutive occupied
    rows are non-decreasing.
    """
    rows = state.rows_by_column
    low, high = min(rows), max(rows)
    if high - low + 1 != len(rows):
        return False
    columns = {row: c + 1 for c, row in enumerate(rows)}
    return convex_prefix_ok([columns[r] for r in range(low, high + 1)])


def extension_rows(state: PartialColumnFill) -> frozenset[int]:
    """Rows where the next column's 1 keeps the fill (k+1)-convex.

    At most the two interval endpoints r-1 and s+1 qualify; the result may
    be empty, which is the construction's dead end.
    """
    if not is_k_convex(state):
        raise StateNotKConvex(f"fill {state.rows_by_column} is not {state.k}-convex")
    if state.k == state.n:
        return frozenset()
    rows = state.rows_by_column
    low, high = min(rows), max(rows)
    out = []
    for candidate in (low - 1, high + 1):
        if 1 <= candidate <= state.n:
            extended = PartialColumnFill(state.n, rows + (candidate,))
            if is_k_convex(extended):
                out.append(candidate)
    return frozenset(out)


def algorithm1(n: int, chooser: Callable[[Sequence[int]], int]) -> Permutation | None:
    """Grow a convex permutation column by column, or report failure.

    The chooser is called on each candidate tuple (ascending): first the
    start rows 1..n, then each nonempty extension set.  Returns None when
    the extension set empties before all n columns are filled; a completed
    fill is always convex, and every convex permutation is reachable under
    some sequence of choices.
    """
    check_order(n)
    choice = chooser(tuple(range(1, n + 1)))
    if not _distinct_within((choice,), n):
        raise ValueError(f"chooser returned {choice!r}, not a row in 1..{n}")
    state = PartialColumnFill(n, (choice,))
    while state.k < n:
        candidates = tuple(sorted(extension_rows(state)))
        if not candidates:
            return None
        choice = chooser(candidates)
        if not isinstance(choice, int) or choice not in candidates:
            raise ValueError(f"chooser returned {choice!r}, not one of {candidates}")
        state = PartialColumnFill(n, state.rows_by_column + (choice,))
    return inverse(Permutation._of(state.rows_by_column))


def enumerate_convex(n: int) -> frozenset[Permutation]:
    """All convex permutations of order n, by exhausting the growth choices; n is at most MAX_CONVEX_ORDER."""
    check_order(n)
    if n > MAX_CONVEX_ORDER:
        raise ValueError(f"convex enumeration limited to order {MAX_CONVEX_ORDER}, got {n}")
    results = []
    # col[r]: the column of row r's 1.  Rows outside the interval hold stale
    # columns that are never read, so backtracking undoes nothing.
    col = [0] * (n + 1)

    def grow(low: int, high: int, first: int, last: int) -> None:
        c = high - low + 2  # the next column
        if c > n:
            results.append(Permutation._of(tuple(col[1:])))
            return
        if low > 1 and col[low] - c <= first:
            col[low - 1] = c
            grow(low - 1, high, col[low] - c, last)
        if high < n and c - col[high] >= last:
            col[high + 1] = c
            grow(low, high + 1, first, c - col[high])

    for start in range(1, n + 1):
        col[start] = 1
        grow(start, start, n, -n)  # one row has no difference: n and -n admit both ends
    return frozenset(results)


def classify_convex(n: int) -> frozenset[Permutation]:
    """The four convex families and their reversals, deduplicated.

    Families: identity, (n, 1, 2, ..., n-1), (n-1, 1, 2, ..., n-2, n), and
    the rotated zigzag pi_star(n).  Overlaps at small orders collapse under
    set semantics.
    """
    check_order(n)
    members: set[Permutation] = set()

    def add(entries: tuple[int, ...]) -> None:
        if sorted(entries) == list(range(1, n + 1)):
            p = Permutation._of(entries)
            members.add(p)
            members.add(reverse(p))

    add(tuple(range(1, n + 1)))
    add((n,) + tuple(range(1, n)))
    add((n - 1,) + tuple(range(1, n - 1)) + (n,))
    add(pi_star(n).entries)
    return frozenset(members)
