"""Bundled self-checks: worked examples and the reference count table.

The CLI's `verify` command replays these so the library's headline claims
can be confirmed from an installed package alone, without the test harness.
"""
from __future__ import annotations

from typing import Callable

from . import convexity, costas, dpair, search, triangle, variation
from .perm_core import (
    Permutation,
    WeightedTree,
    derivative,
    integrate,
    inverse,
    realize_shift,
    from_tree,
    sum_characteristic,
)

# Known counts of distinct-derivative permutations for orders 1..10.
REFERENCE_ONE_COSTAS = (
    (1, 1, 1, 100.0),
    (2, 2, 2, 100.0),
    (3, 6, 4, 66.7),
    (4, 24, 12, 50.0),
    (5, 120, 44, 36.7),
    (6, 720, 176, 24.4),
    (7, 5040, 788, 15.6),
    (8, 40320, 3936, 9.8),
    (9, 362880, 23264, 6.4),
    (10, 3628800, 152112, 4.2),
)


def check_reference_counts(n_max: int = 10):
    """Recompute the count table and compare against the reference rows."""
    if not 1 <= n_max <= len(REFERENCE_ONE_COSTAS):
        raise ValueError(f"reference data covers orders 1..{len(REFERENCE_ONE_COSTAS)}, got {n_max}")
    rows = search.table("one-costas", n_max)
    ok = all(tuple(row) == expected for row, expected in zip(rows, REFERENCE_ONE_COSTAS))
    return rows, ok


def _p(*entries: int) -> Permutation:
    return Permutation(entries)


_ORDER7 = _p(5, 2, 7, 4, 1, 6, 3)
_ORDER6 = _p(3, 5, 1, 6, 2, 4)
_COSTAS4 = _p(4, 3, 1, 2)
_CENTRO8 = _p(2, 3, 5, 8, 1, 4, 6, 7)
_COSTAS_CENTRO8 = _p(2, 4, 3, 1, 8, 6, 5, 7)
_COSTAS16 = _p(1, 3, 9, 10, 13, 5, 15, 11, 16, 14, 8, 7, 4, 12, 2, 6)
_DPAIR18 = _p(1, 6, 11, 16, 3, 8, 13, 18, 5, 10, 15, 2, 7, 12, 17, 4, 9, 14)
_DPAIR18_INV = _p(1, 12, 5, 16, 9, 2, 13, 6, 17, 10, 3, 14, 7, 18, 11, 4, 15, 8)

_STAGGERED_4312 = "\n".join(
    (
        "  4     3     1     2",
        "    -1    -2     1",
        "       -3    -1",
        "          -2",
    )
)


def _column_prefix(p: Permutation, k: int) -> convexity.PartialColumnFill:
    return convexity.PartialColumnFill(p.n, inverse(p).entries[:k])


def _occupies_interval(p: Permutation, k: int) -> bool:
    rows = convexity.interval_rows(_column_prefix(p, k))
    return max(rows) - min(rows) + 1 == k


WORKED_EXAMPLES: tuple[tuple[str, Callable[[], bool]], ...] = (
    (
        "derive 5,2,7,4,1,6,3 -> -3,5,-3,-3,5,-3",
        lambda: derivative(_ORDER7).diffs == (-3, 5, -3, -3, 5, -3),
    ),
    (
        "derive 3,5,1,6,2,4 -> 2,-4,5,-4,2",
        lambda: derivative(_ORDER6).diffs == (2, -4, 5, -4, 2),
    ),
    (
        "integrate -3,5,-3,-3,5,-3 -> 5,2,7,4,1,6,3",
        lambda: integrate((-3, 5, -3, -3, 5, -3)) == _ORDER7,
    ),
    (
        "sum characteristic of -3,5,-3,-3,5,-3 is {-4..2}",
        lambda: sum_characteristic((-3, 5, -3, -3, 5, -3)) == frozenset(range(-4, 3)),
    ),
    (
        "sum characteristic of -4,1,1,1,2,1 is {-4..2}",
        lambda: sum_characteristic((-4, 1, 1, 1, 2, 1)) == frozenset(range(-4, 3)),
    ),
    (
        "derivative of 5,1,2,3,4,6,7 is -4,1,1,1,2,1",
        lambda: derivative(_p(5, 1, 2, 3, 4, 6, 7)).diffs == (-4, 1, 1, 1, 2, 1),
    ),
    (
        "realize-shift n=7 s=4 -> 5,1,2,3,4,6,7",
        lambda: realize_shift(7, 4) == _p(5, 1, 2, 3, 4, 6, 7),
    ),
    (
        "spanning tree on 6 vertices rebuilds 3,6,1,5,2,4",
        lambda: from_tree(
            WeightedTree(6, ((1, 2, 3), (2, 3, -5), (4, 6, -1), (1, 4, 2), (2, 5, -4)))
        )
        == _p(3, 6, 1, 5, 2, 4),
    ),
    (
        "inverse of the order-18 two-value permutation",
        lambda: inverse(_DPAIR18) == _DPAIR18_INV,
    ),
    (
        "triangle rows of 3,5,1,6,2,4",
        lambda: triangle.build(_ORDER6.entries).rows
        == ((3, 5, 1, 6, 2, 4), (2, -4, 5, -4, 2), (-2, 1, 1, -2), (3, -3, 3), (-1, -1), (1,)),
    ),
    (
        "triangle rows of 4,3,1,2",
        lambda: triangle.build(_COSTAS4.entries).rows
        == ((4, 3, 1, 2), (-1, -2, 1), (-3, -1), (-2,)),
    ),
    (
        "triangle row accessors (k=3 and k=5) on 3,5,1,6,2,4",
        lambda: triangle.row(triangle.build(_ORDER6.entries), 3) == (3, -3, 3)
        and triangle.row(triangle.build(_ORDER6.entries), 5) == (1,),
    ),
    (
        "row 1 of 3,5,1,6,2,4 repeats; no row of 4,3,1,2 does",
        lambda: triangle.row_has_repeat(triangle.build(_ORDER6.entries), 1)
        and all(not triangle.row_has_repeat(triangle.build(_COSTAS4.entries), k) for k in range(4)),
    ),
    (
        "staggered rendering of 4,3,1,2",
        lambda: triangle.render(triangle.build(_COSTAS4.entries), "staggered") == _STAGGERED_4312,
    ),
    (
        "1,3,4,2,5 has distinct derivative entries",
        lambda: costas.is_k_costas(_p(1, 3, 4, 2, 5), 1),
    ),
    (
        "5,2,7,4,1,6,3 repeats a derivative entry",
        lambda: not costas.is_k_costas(_ORDER7, 1),
    ),
    ("4,3,1,2 is Costas", lambda: costas.is_costas(_COSTAS4)),
    ("3,5,1,6,2,4 is not Costas", lambda: not costas.is_costas(_ORDER6)),
    (
        "mirrored-segment witness exists for every Costas permutation of order 4..6",
        lambda: all(
            costas.jedwab_witness(q) is not None for n in (4, 5, 6) for q in search.matches("costas", n, collect=True)
        ),
    ),
    ("2,3,5,8,1,4,6,7 is centrosymmetric", lambda: costas.is_centrosymmetric(_CENTRO8)),
    (
        "2,3,5,8,1,4,6,7 has no unforced triangle repeats",
        lambda: costas.is_costas_centrosymmetric(_CENTRO8),
    ),
    (
        "2,4,3,1,8,6,5,7 has no unforced triangle repeats",
        lambda: costas.is_costas_centrosymmetric(_COSTAS_CENTRO8),
    ),
    (
        "reversing the second half of the order-16 Costas permutation",
        lambda: costas.reverse_second_half(_COSTAS16)
        == _p(1, 3, 9, 10, 13, 5, 15, 11, 6, 2, 12, 4, 7, 8, 14, 16),
    ),
    (
        "the reversed order-16 permutation is centrosymmetric without unforced repeats",
        lambda: costas.is_costas_centrosymmetric(costas.reverse_second_half(_COSTAS16)),
    ),
    (
        "reversing the second half of 2,4,3,1,8,6,5,7 breaks the Costas property",
        lambda: costas.reverse_second_half(_COSTAS_CENTRO8) == _p(2, 4, 3, 1, 7, 5, 6, 8)
        and not costas.is_costas(_p(2, 4, 3, 1, 7, 5, 6, 8))
        and triangle.row_has_repeat(triangle.build((2, 4, 3, 1, 7, 5, 6, 8)), 1),
    ),
    (
        "2,4,-1,-3 is Costas as a signed sequence",
        lambda: costas.is_costas_signed(costas.SignedPermutation((2, 4, -1, -3))),
    ),
    (
        "1,8,10,9,2,7 is a Costas 6-subpermutation of order 12",
        lambda: costas.is_costas_subpermutation((1, 8, 10, 9, 2, 7), 12),
    ),
    (
        "1,8,10,9,2,7 is a Costas half-permutation for m=6",
        lambda: costas.is_costas_half((1, 8, 10, 9, 2, 7), 6),
    ),
    (
        "6,3,5,2,4,1 realizes the derivative pair (2,-3)",
        lambda: dpair.is_dpair_realization(_p(6, 3, 5, 2, 4, 1), dpair.DPair(2, -3)),
    ),
    (
        "5,2,7,4,1,6,3 realizes the derivative pair (5,-3)",
        lambda: dpair.is_dpair_realization(_ORDER7, dpair.DPair(5, -3)),
    ),
    (
        "(5,-13) is feasible; (2,-4) is not",
        lambda: dpair.is_feasible_dpair(dpair.DPair(5, -13))
        and not dpair.is_feasible_dpair(dpair.DPair(2, -4)),
    ),
    (
        "construct dpair a=5 b=13 and its derivative",
        lambda: dpair.construct_dpair(5, 13) == _DPAIR18
        and derivative(_DPAIR18).diffs
        == (5, 5, 5, -13, 5, 5, 5, -13, 5, 5, -13, 5, 5, 5, -13, 5, 5),
    ),
    (
        "inverse of the (5,13) construction realizes (11,-7)",
        lambda: dpair.inverse_dpair(5, 13) == dpair.DPair(11, -7)
        and dpair.is_dpair_realization(inverse(dpair.construct_dpair(5, 13)), dpair.DPair(11, -7)),
    ),
    (
        "construct dpair a=4 b=5, its derivative, and the inverse pair (7,-2)",
        lambda: dpair.construct_dpair(4, 5) == _p(1, 5, 9, 4, 8, 3, 7, 2, 6)
        and derivative(dpair.construct_dpair(4, 5)).diffs == (4, 4, -5, 4, -5, 4, -5, 4)
        and dpair.inverse_dpair(4, 5) == dpair.DPair(7, -2)
        and derivative(inverse(dpair.construct_dpair(4, 5))).diffs
        == (7, -2, -2, -2, 7, -2, -2, -2),
    ),
    (
        "local variation of 1,3,4,2,5 is 3",
        lambda: variation.local_variation(_p(1, 3, 4, 2, 5)) == 3,
    ),
    (
        "global variation of 4,6,2,7,3,8,1,5 is 31, the order-8 maximum",
        lambda: variation.global_variation(_p(4, 6, 2, 7, 3, 8, 1, 5)) == 31
        and variation.delta_star(8) == 31,
    ),
    (
        "global variation of 4,5,2,7,1,6,3 is 23, the order-7 maximum",
        lambda: variation.global_variation(_p(4, 5, 2, 7, 1, 6, 3)) == 23
        and variation.delta_star(7) == 23,
    ),
    (
        "both order-8 and order-7 maximizers are mid-alternating",
        lambda: variation.is_mid_alternating(_p(4, 6, 2, 7, 3, 8, 1, 5))
        and variation.is_mid_alternating(_p(4, 5, 2, 7, 1, 6, 3)),
    ),
    (
        "identity and reversal are 1-Lipschitz",
        lambda: variation.is_lipschitz(_p(1, 2, 3, 4, 5), 1)
        and variation.is_lipschitz(_p(5, 4, 3, 2, 1), 1),
    ),
    (
        "zigzag permutations of orders 4 and 5",
        lambda: variation.pi_perm(4) == _p(2, 3, 1, 4) and variation.pi_perm(5) == _p(3, 4, 2, 5, 1),
    ),
    (
        "rotated zigzag of order 6 and its derivative",
        lambda: variation.pi_star(6) == _p(6, 4, 2, 1, 3, 5)
        and derivative(variation.pi_star(6)).diffs == (-2, -2, -1, 2, 2),
    ),
    (
        "minimum-local-variation witness derivatives at orders 12 and 11",
        lambda: derivative(variation.construct_min_local_1costas(12)).diffs
        == (1, -2, 3, -4, 5, 6, -5, 4, -3, 2, -1)
        and derivative(variation.construct_min_local_1costas(11)).diffs
        == (5, -4, 3, -2, 1, -6, -1, 2, -3, 4),
    ),
    (
        "order-12 minimum global variation over distinct-derivative permutations is 36",
        lambda: variation.min_global_1costas(12) == 36
        and variation.global_variation(variation.construct_min_local_1costas(12)) == 36,
    ),
    (
        "maximin witnesses at orders 6 and 7",
        lambda: variation.construct_maximin_abs(6) == _p(4, 1, 5, 2, 6, 3)
        and variation.construct_maximin_abs(7) == _p(1, 5, 2, 6, 3, 7, 4),
    ),
    (
        "identity attains the minimum global variation n-1",
        lambda: variation.global_variation(_p(1, 2, 3, 4, 5, 6, 7, 8, 9)) == 8,
    ),
    (
        "6,4,2,1,3,5 and the identity are convex; 4,3,1,2 is not",
        lambda: convexity.is_convex(_p(6, 4, 2, 1, 3, 5))
        and convexity.is_convex(_p(1, 2, 3, 4, 5, 6))
        and not convexity.is_convex(_COSTAS4),
    ),
    (
        "column prefixes of a convex permutation stay k-convex",
        lambda: all(
            convexity.is_k_convex(_column_prefix(_p(6, 4, 2, 1, 3, 5), k)) for k in range(1, 7)
        ),
    ),
    (
        "4,3,1,2 passes every interval check yet fails the convexity clause",
        lambda: all(_occupies_interval(_COSTAS4, k) for k in range(1, 5))
        and not convexity.is_k_convex(_column_prefix(_COSTAS4, 4)),
    ),
    (
        "first-column extension sets are the adjacent rows",
        lambda: convexity.extension_rows(convexity.PartialColumnFill(6, (3,))) == {2, 4}
        and convexity.extension_rows(convexity.PartialColumnFill(6, (1,))) == {2},
    ),
    (
        "exactly 8 convex permutations of order 6, including 6,4,2,1,3,5",
        lambda: len(convexity.enumerate_convex(6)) == 8
        and _p(6, 4, 2, 1, 3, 5) in convexity.enumerate_convex(6)
        and convexity.enumerate_convex(6) == convexity.classify_convex(6),
    ),
    (
        "count of distinct-derivative permutations at order 5 is 44",
        lambda: search.count_one_costas(5).count == 44,
    ),
    (
        "count table rows for orders 1, 7 and 10",
        lambda: tuple(search.count_one_costas(1)) == (1, 1, 1, 100.0)
        and tuple(search.count_one_costas(7)) == (7, 5040, 788, 15.6)
        and tuple(search.count_one_costas(10)) == (10, 3628800, 152112, 4.2),
    ),
)


def run_examples() -> list[tuple[str, bool]]:
    """Evaluate every worked example; returns (name, passed) pairs."""
    return [(name, bool(check())) for name, check in WORKED_EXAMPLES]
