"""Local and global variation, and the permutations that extremize them.

Local variation is the largest absolute derivative entry, global variation
the sum of absolute entries.  This module carries the extremal values with
deterministic witnesses: maximum global variation (mid-alternating
permutations), the zigzag family pi_perm whose derivative is (1,-2,3,...),
block constructions minimizing both variations over distinct-derivative
permutations, and the construction maximizing the smallest absolute
derivative entry.
"""
from __future__ import annotations

from itertools import chain, islice, pairwise
from operator import sub
from typing import Iterator

from .perm_core import Permutation, check_order, rotate90


def _steps(p: Permutation) -> Iterator[int]:
    """The consecutive differences of p, streamed rather than stored."""
    e = p.entries
    return map(sub, islice(e, 1, None), e)


def _interleave(first: range, second: range) -> Iterator[int]:
    """first[0], second[0], first[1], second[1], ..., then the rest of first."""
    return chain(chain.from_iterable(zip(first, second)), first[len(second):])


def local_variation(p: Permutation) -> int:
    """Largest |consecutive difference|; 0 at order 1 by convention."""
    return max(map(abs, _steps(p)), default=0)


def global_variation(p: Permutation) -> int:
    """Sum of |consecutive differences| (the l1 norm of the derivative)."""
    return sum(map(abs, _steps(p)))


def is_lipschitz(p: Permutation, bound: int) -> bool:
    """True iff |p[i] - p[j]| <= bound * |i - j| for all i, j.

    Equivalent to local_variation(p) <= bound, since multi-step differences
    are sums of consecutive ones.
    """
    if bound < 1:
        raise ValueError(f"Lipschitz bound must be positive, got {bound}")
    return local_variation(p) <= bound


def is_mid_alternating(p: Permutation) -> bool:
    """Consecutive entries alternate across the middle of the value range.

    For order 2k the sides are {1..k} and {k+1..2k}; for order 2k+1 the
    pivot value k+1 belongs to both sides.  Equivalently, consecutive a, b
    have (2a-n-1)(2b-n-1) <= 0: opposite sides of (n+1)/2, or one is the pivot.
    """
    m = p.n + 1
    return all((2 * a - m) * (2 * b - m) <= 0 for a, b in pairwise(p.entries))


def delta_star(n: int) -> int:
    """Maximum global variation over all permutations of order n.

    (n^2-2)/2 for even n and (n^2-3)/2 for odd n; both are gated by the
    exhaustive oracle in the test suite.
    """
    check_order(n, 2)
    return (n * n - 2) // 2 if n % 2 == 0 else (n * n - 3) // 2


def construct_max_global(n: int) -> Permutation:
    """A deterministic permutation attaining delta_star(n).

    Starts at k = floor(n/2), interleaves k+2, 1, k+3, 2, ... while values
    remain in range, and ends at k+1; the output is mid-alternating with
    endpoint set {k, k+1}.
    """
    check_order(n, 2)
    k = n // 2
    return Permutation._of((k, *_interleave(range(k + 2, n + 1), range(1, k)), k + 1))


def pi_perm(k: int) -> Permutation:
    """The zigzag permutation of order k with derivative (1, -2, 3, ..., +-(k-1)).

    >>> pi_perm(4).entries
    (2, 3, 1, 4)
    >>> pi_perm(5).entries
    (3, 4, 2, 5, 1)
    """
    check_order(k)
    s = (k + 1) // 2
    return Permutation._of((s, *_interleave(range(s + 1, k + 1), range(s - 1, 0, -1))))


def pi_star(k: int) -> Permutation:
    """pi_perm(k) rotated 90 degrees counter-clockwise; convex for every k."""
    return rotate90(pi_perm(k))


def construct_min_local_1costas(n: int) -> Permutation:
    """A distinct-derivative permutation with the least possible local variation.

    Any distinct-derivative permutation has local variation at least
    ceil(n/2) (there are only n-1 signed values of magnitude below n/2).
    The witness is assembled from zigzag blocks on the diagonal or
    anti-diagonal, with rows/columns reversed according to the parity of
    n and of k = floor(n/2); it also attains min_global_1costas(n).
    """
    check_order(n, 2)
    k = n // 2
    if n % 2 == 0:
        block = pi_perm(k).entries
        top = block
        bottom = map(k.__add__, reversed(block))
    else:
        upper = pi_perm(k + 1).entries
        lower = pi_perm(k).entries
        if k % 2 == 0:
            top = map(k.__add__, reversed(upper))
            bottom = lower
        else:
            top = map((2 * k + 2).__sub__, reversed(upper))
            bottom = map((k + 1).__sub__, lower)
    return Permutation._of((*top, *bottom))


def min_global_1costas(n: int) -> int:
    """Minimum global variation over distinct-derivative permutations.

    n^2/4 for even n and (n^2-1)/4 + 1 for odd n; both oracle-gated in the
    test suite.
    """
    check_order(n, 2)
    return n * n // 4 if n % 2 == 0 else (n * n - 1) // 4 + 1


def maximin_abs_value(n: int) -> int:
    """Largest possible value of the smallest |derivative entry|: floor(n/2)."""
    check_order(n, 2)
    return n // 2


def construct_maximin_abs(n: int) -> Permutation:
    """A permutation whose smallest |derivative entry| is floor(n/2).

    Even n = 2k interleaves (k+1, 1, k+2, 2, ..., n, k); odd n prepends 1 to
    the order n-1 construction shifted up by one.

    >>> construct_maximin_abs(6).entries
    (4, 1, 5, 2, 6, 3)
    """
    check_order(n, 2)
    k = n // 2
    lift = n % 2
    pairs = zip(range(k + 1 + lift, n + 1), range(1 + lift, k + 1 + lift))
    return Permutation._of((1,) * lift + tuple(chain.from_iterable(pairs)))

