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

from .perm_core import Permutation, check_order, derivative, rotate90


def local_variation(p: Permutation) -> int:
    """Largest |consecutive difference|; 0 at order 1 by convention."""
    if p.n == 1:
        return 0
    return max(map(abs, derivative(p).diffs))


def global_variation(p: Permutation) -> int:
    """Sum of |consecutive differences| (the l1 norm of the derivative)."""
    if p.n == 1:
        return 0
    return sum(map(abs, derivative(p).diffs))


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
    pivot value k+1 belongs to both sides.
    """
    e = p.entries
    n = p.n
    k = n // 2
    low_cap = k if n % 2 == 0 else k + 1
    high_floor = k + 1
    for i in range(n - 1):
        a_low, a_high = e[i] <= low_cap, e[i] >= high_floor
        b_low, b_high = e[i + 1] <= low_cap, e[i + 1] >= high_floor
        if not ((a_low and b_high) or (a_high and b_low)):
            return False
    return True


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
    out = [k]
    high, low = k + 2, 1
    take_high = True
    while high <= n or low <= k - 1:
        if take_high and high <= n:
            out.append(high)
            high += 1
        elif not take_high and low <= k - 1:
            out.append(low)
            low += 1
        take_high = not take_high
    out.append(k + 1)
    return Permutation(tuple(out))


def pi_perm(k: int) -> Permutation:
    """The zigzag permutation of order k with derivative (1, -2, 3, ..., +-(k-1)).

    >>> pi_perm(4).entries
    (2, 3, 1, 4)
    >>> pi_perm(5).entries
    (3, 4, 2, 5, 1)
    """
    check_order(k)
    if k % 2 == 0:
        mid = k // 2
        out = [mid]
        for j in range(1, mid + 1):
            out.append(mid + j)
            if j < mid:
                out.append(mid - j)
    else:
        mid = (k - 1) // 2
        out = [mid + 1]
        for j in range(1, mid + 1):
            out.append(mid + 1 + j)
            out.append(mid + 1 - j)
    return Permutation(tuple(out))


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
        bottom = tuple(k + v for v in reversed(block))
    else:
        upper = pi_perm(k + 1).entries
        lower = pi_perm(k).entries
        if k % 2 == 0:
            top = tuple(k + v for v in reversed(upper))
            bottom = lower
        else:
            top = tuple(k + (k + 2 - v) for v in reversed(upper))
            bottom = tuple(k + 1 - v for v in lower)
    return Permutation(top + bottom)


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
    if n % 2 == 0:
        k = n // 2
        out = []
        for j in range(1, k + 1):
            out.append(k + j)
            out.append(j)
        return Permutation(tuple(out))
    inner = construct_maximin_abs(n - 1)
    return Permutation((1,) + tuple(v + 1 for v in inner.entries))


# Alternative odd-order closed forms in circulation that disagree with the
# exhaustive oracle; kept for reference and surfaced in CLI metadata.
DIVERGENT_CLOSED_FORMS = {
    "delta_star_odd": {
        "used": "(n^2-3)/2",
        "divergent": "(3n^2-6n-13)/4",
        "note": "the divergent form matches n=7 but fails exhaustive search at n=5",
    },
    "min_global_1costas_odd": {
        "used": "(n^2-1)/4+1",
        "divergent": "(n-1)^2/4+1",
        "note": "the divergent form fails its own order-11 witness, which sums to 31",
    },
}
