"""Permutations whose derivative takes exactly two values.

A pair (p, q) is realizable iff p and q have opposite signs, are coprime,
and differ in absolute value.  The coprime-stepping construction realizes
(a, -b) at order a+b for 2 <= a < b (and at order b+1 for a = 1), and the
inverse permutation realizes the modular-inverse pair.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from math import gcd
from operator import add

from .perm_core import Permutation, _all_ints, check_order, derivative


class NotCoprime(ValueError):
    """The step sizes share a common factor."""


class NotStrictlyOrdered(ValueError):
    """The step sizes must satisfy a < b."""


@dataclass(frozen=True)
class DPair:
    """An unordered pair of candidate derivative values, stored as given."""

    p: int
    q: int

    def __post_init__(self) -> None:
        if not _all_ints((self.p, self.q)):
            raise ValueError(f"pair values must be integers, got ({self.p}, {self.q})")
        if self.p == self.q:
            raise ValueError(f"pair values must differ, got ({self.p}, {self.q})")

    def normalized(self) -> "DPair":
        """The representative with |p| >= |q| and p > 0 (swap and/or flip both signs)."""
        p, q = self.p, self.q
        if abs(p) < abs(q):
            p, q = q, p
        if p < 0:
            p, q = -p, -q
        return DPair(p, q)

    def __str__(self) -> str:
        return f"{self.p},{self.q}"


def is_dpair_realization(perm: Permutation, pair: DPair) -> bool:
    """True iff the derivative's value set is exactly {p, q}; never at order 1, whose derivative is empty."""
    return set(derivative(perm).diffs) == {pair.p, pair.q}


def is_feasible_dpair(pair: DPair) -> bool:
    """True iff some permutation at some order realizes the pair.

    Requires opposite signs, coprime absolute values and distinct absolute
    values; (1, -1) in particular fails because running sums of +-1 steps
    revisit values.
    """
    p, q = pair.p, pair.q
    return p * q < 0 and gcd(abs(p), abs(q)) == 1 and abs(p) != abs(q)


def _check_steps(a: int, b: int) -> None:
    """Raise unless a and b are integers with 1 <= a < b, coprime, and a+b <= MAX_ORDER."""
    if not _all_ints((a, b)) or a < 1 or b < 1 or a >= b:
        raise NotStrictlyOrdered(f"need 1 <= a < b, got a={a}, b={b}")
    if gcd(a, b) != 1:
        raise NotCoprime(f"a={a} and b={b} share factor {gcd(a, b)}")
    check_order(a + b)


def construct_dpair(a: int, b: int) -> Permutation:
    """A permutation realizing the pair (a, -b), for coprime 1 <= a < b.

    For a = 1 the order is b+1 and the result is (2, 3, ..., b+1, 1).  For
    a >= 2 the order is a+b and entry i is 1+(i-1)a reduced mod a+b into
    {1..a+b}: the full-cycle construction stepping a columns per row.

    >>> construct_dpair(1, 3).entries
    (2, 3, 4, 1)
    """
    _check_steps(a, b)
    if a == 1:
        return Permutation._of((*range(2, b + 2), 1))
    n = a + b
    return Permutation._of(tuple(map(add, map(n.__rmod__, range(0, n * a, a)), repeat(1))))


def inverse_dpair(a: int, b: int) -> DPair:
    """The pair realized by the inverse of construct_dpair(a, b).

    With a' the inverse of a modulo a+b, the inverse permutation steps a'
    columns per row, so it realizes (a', -(a+b-a')).
    """
    _check_steps(a, b)
    a_inv = pow(a, -1, a + b)
    return DPair(a_inv, -(a + b - a_inv))

