"""Costas-type predicates and their relatives.

A permutation is k-Costas when rows 0..k of its difference triangle are
repeat-free, and Costas when every row is.  Geometrically, Costas means no
two of the line segments between matrix points share both length and slope.
This module also covers the incremental builder for distinct-derivative
(1-Costas) permutations, a structural witness that every Costas matrix of
order >= 4 contains mirrored segment pairs, and the looser variants:
centrosymmetric, signed, subpermutation and half-permutation forms.

BuilderState and is_costas_subpermutation judge their partial permutations
by perm_core's one gate, _distinct_within: an int n and distinct ints of
1..n.  The builder's no-repeated-difference rule is triangle.distinct_rows
at row 1, the rule every other one-Costas check runs.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from operator import sub
from typing import Sequence

from . import search, triangle
from .perm_core import Permutation, _distinct_within

Point = tuple[int, int]
PointPair = tuple[Point, Point]


@dataclass(frozen=True)
class SignedPermutation:
    """Nonzero entries whose absolute values form a permutation of {1..n}."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        Permutation(tuple(abs(v) for v in self.entries))

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class BuilderState:
    """A partial permutation whose consecutive differences are all distinct."""

    n: int
    prefix: tuple[int, ...]
    used_columns: frozenset[int] = field(init=False)
    used_diffs: frozenset[int] = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "prefix", tuple(self.prefix))
        prefix = self.prefix
        if not prefix:
            raise ValueError("prefix must contain at least the first-row choice")
        if not _distinct_within(prefix, self.n):
            raise ValueError(f"prefix {prefix} is not distinct columns in 1..{self.n!r}")
        if not triangle.distinct_rows(prefix, 1):
            raise ValueError(f"prefix {prefix} repeats a consecutive difference")
        object.__setattr__(self, "used_columns", frozenset(prefix))
        object.__setattr__(self, "used_diffs", frozenset(map(sub, prefix[1:], prefix)))


@dataclass(frozen=True)
class JedwabWitness:
    """Two segment pairs with equal vertical and opposite horizontal displacement.

    Each point is a (row, column) of a 1 in the permutation matrix.  With
    first = ((r,s), (u,v)) and second = ((a,b), (c,d)), the invariants are
    b-d = s-v and a-c = -(r-u).
    """

    first: PointPair
    second: PointPair

    def __post_init__(self) -> None:
        (r, s), (u, v) = self.first
        (a, b), (c, d) = self.second
        if (r, s) == (u, v):
            raise ValueError("first segment is degenerate")
        if self.second == self.first:
            raise ValueError("witness pairs coincide")
        if b - d != s - v or a - c != -(r - u):
            raise ValueError("displacements do not mirror")


def is_k_costas(p: Permutation, k: int) -> bool:
    """True iff difference-triangle rows 0..k are repeat-free; always true at k=0."""
    search.check_k(k, p.n)
    return triangle.distinct_rows(p.entries, k)


def is_costas(p: Permutation) -> bool:
    """True iff every row of the difference triangle is repeat-free."""
    return is_k_costas(p, p.n - 1)


def start_state(n: int, column: int) -> BuilderState:
    """Place the first 1 in the given column."""
    return BuilderState(n, (column,))


def permitted_positions(state: BuilderState) -> frozenset[int]:
    """Columns that extend the prefix without repeating a consecutive difference.

    May be empty: that is the builder's failure outcome.  Extending by any
    returned column keeps the distinct-difference invariant, and no other
    column does.
    """
    if len(state.prefix) >= state.n:
        return frozenset()
    last = state.prefix[-1]
    return frozenset(
        c
        for c in range(1, state.n + 1)
        if c not in state.used_columns and (c - last) not in state.used_diffs
    )


def extend(state: BuilderState, column: int) -> BuilderState:
    """Extend the prefix by one permitted column."""
    if not isinstance(column, int) or column not in permitted_positions(state):
        raise ValueError(f"column {column} is not permitted after prefix {state.prefix}")
    return BuilderState(state.n, state.prefix + (column,))


def jedwab_witness(p: Permutation) -> JedwabWitness | None:
    """Search all ordered point pairs for a mirrored-displacement witness.

    Returns the first witness in row-major scan order, or None.  Every
    Costas permutation of order >= 4 has one; the two segments may share a
    point.

    O(n^2): the first ordered pair in scan order is filed under each
    displacement, and the partner of (rs, uv) is the pair filed under the
    mirrored displacement.  That pair is never (rs, uv) itself, since rows
    are distinct and so the row displacement is never zero.
    """
    points = [(i + 1, v) for i, v in enumerate(p.entries)]
    pairs = [(ab, cd) for ab in points for cd in points if ab != cd]
    first_with: dict[Point, PointPair] = {}
    for ab, cd in pairs:
        first_with.setdefault((ab[0] - cd[0], ab[1] - cd[1]), (ab, cd))
    for rs, uv in pairs:
        second = first_with.get((uv[0] - rs[0], rs[1] - uv[1]))
        if second is not None:
            return JedwabWitness((rs, uv), second)
    return None


def is_centrosymmetric(p: Permutation) -> bool:
    """True iff entries k and n+1-k always sum to n+1 (matrix fixed by 180-degree rotation)."""
    e = p.entries
    n = p.n
    return all(e[k] + e[n - 1 - k] == n + 1 for k in range(n))


def is_costas_centrosymmetric(p: Permutation) -> bool:
    """Centrosymmetric with no triangle repeats beyond the forced mirror ones.

    Centrosymmetry forces entry i of row k to equal entry n-k+1-i, so the
    row's n-k entries fall into (n-k+1)//2 mirror pairs (one unpaired middle
    entry when n-k is odd); the row has no other repeat exactly when it holds
    that many distinct values.
    """
    e = p.entries
    n = p.n
    return is_centrosymmetric(p) and all(len(set(map(sub, e[k:], e))) == (n - k + 1) // 2 for k in range(1, n))


def reverse_second_half(p: Permutation) -> Permutation:
    """Reverse entries n/2+1..n in place; order must be even."""
    n = p.n
    if n % 2:
        raise ValueError(f"order must be even, got {n}")
    half = n // 2
    return Permutation._of(p.entries[:half] + p.entries[:half - 1:-1])


def is_costas_signed(s: SignedPermutation) -> bool:
    """True iff the triangle of the signed entries themselves has no row repeats."""
    return triangle.distinct_rows(s.entries, s.n - 1)


def is_costas_subpermutation(values: Sequence[int], n: int) -> bool:
    """Distinct values from {1..n} whose difference triangle has no row repeats."""
    values = tuple(values)
    return bool(values) and _distinct_within(values, n) and triangle.distinct_rows(values, len(values) - 1)


def is_costas_half(values: Sequence[int], m: int) -> bool:
    """A Costas m-subpermutation of order 2m taking one value per pair {i, 2m+1-i}."""
    values = tuple(values)
    if len(values) != m or len({min(v, 2 * m + 1 - v) for v in values}) != m:
        return False
    return is_costas_subpermutation(values, 2 * m)


def gamma(n: int) -> tuple[int, tuple[int, ...]]:
    """Largest m with a Costas m-subpermutation of order n, plus a witness.

    The longest-prefix search under the Costas rule (search._first_rows), from
    the empty prefix over value choices in ascending order: the witness is the first
    Costas subpermutation of the greatest length, and the search stops early
    once m = n is reached (m = n happens exactly when a Costas permutation
    of order n exists).  Raises ValueError unless 1 <= n <= search.MAX_SEARCH_ORDER.
    """
    best = search.longest_prefix(search.costas_prefix_ok, n)
    return len(best), best
