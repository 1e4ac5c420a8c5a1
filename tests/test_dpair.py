import itertools
from math import gcd

import pytest

from permderiv import (
    MAX_ORDER,
    DPair,
    NotCoprime,
    NotStrictlyOrdered,
    Permutation,
    construct_dpair,
    derivative,
    inverse,
    inverse_dpair,
    is_dpair_realization,
    is_feasible_dpair,
)


def all_perms(n):
    return (Permutation(t) for t in itertools.permutations(range(1, n + 1)))


def test_dpair_type():
    pair = DPair(2, -3)
    assert (pair.p, pair.q) == (2, -3)
    with pytest.raises(ValueError):
        DPair(3, 3)


@pytest.mark.parametrize("p,q", [(1.5, -2), (2, -3.0), ("2", -3)])
def test_dpair_rejects_non_integer_values(p, q):
    with pytest.raises(ValueError) as info:
        DPair(p, q)
    assert str(info.value) == f"pair values must be integers, got ({p}, {q})"


def test_dpair_normalized():
    assert DPair(2, -3).normalized() == DPair(3, -2)
    assert DPair(-13, 5).normalized() == DPair(13, -5)
    assert DPair(5, -13).normalized() == DPair(13, -5)
    assert DPair(1, -1).normalized() == DPair(1, -1)


def test_realization_examples():
    assert is_dpair_realization(Permutation((6, 3, 5, 2, 4, 1)), DPair(2, -3))
    assert not is_dpair_realization(Permutation((1, 2, 3)), DPair(1, -2))
    assert is_dpair_realization(Permutation((5, 2, 7, 4, 1, 6, 3)), DPair(5, -3))
    assert not is_dpair_realization(Permutation((1,)), DPair(1, -2))  # an empty derivative realizes no pair


def test_feasibility_examples():
    assert is_feasible_dpair(DPair(5, -13))
    assert not is_feasible_dpair(DPair(2, -4))  # common factor
    assert not is_feasible_dpair(DPair(1, -1))  # equal magnitudes
    assert not is_feasible_dpair(DPair(2, 3))  # same sign
    assert is_feasible_dpair(DPair(-13, 5))  # order irrelevant


def test_construct_worked_examples():
    p = construct_dpair(5, 13)
    assert p == Permutation((1, 6, 11, 16, 3, 8, 13, 18, 5, 10, 15, 2, 7, 12, 17, 4, 9, 14))
    assert derivative(p).diffs == (5, 5, 5, -13, 5, 5, 5, -13, 5, 5, -13, 5, 5, 5, -13, 5, 5)

    q = construct_dpair(4, 5)
    assert q == Permutation((1, 5, 9, 4, 8, 3, 7, 2, 6))
    assert derivative(q).diffs == (4, 4, -5, 4, -5, 4, -5, 4)
    assert inverse(q) == Permutation((1, 8, 6, 4, 2, 9, 7, 5, 3))
    assert derivative(inverse(q)).diffs == (7, -2, -2, -2, 7, -2, -2, -2)

    assert construct_dpair(1, 3) == Permutation((2, 3, 4, 1))
    assert derivative(construct_dpair(1, 3)).diffs == (1, 1, -3)


def test_construct_errors():
    with pytest.raises(NotCoprime):
        construct_dpair(2, 4)
    with pytest.raises(NotStrictlyOrdered):
        construct_dpair(3, 3)
    with pytest.raises(NotStrictlyOrdered):
        construct_dpair(5, 3)
    with pytest.raises(NotStrictlyOrdered):
        construct_dpair(0, 3)


def test_inverse_dpair_examples():
    assert inverse_dpair(5, 13) == DPair(11, -7)
    assert inverse_dpair(4, 5) == DPair(7, -2)
    assert inverse_dpair(1, 7) == DPair(1, -7)
    with pytest.raises(NotCoprime):
        inverse_dpair(6, 9)


@pytest.mark.parametrize("a,b", ((2, 4), (3, 3), (5, 3), (0, 3), (-2, 3), (1, MAX_ORDER), (2, MAX_ORDER - 1)))
def test_inverse_dpair_rejects_what_construct_dpair_rejects(a, b):
    with pytest.raises(ValueError) as constructed:
        construct_dpair(a, b)
    with pytest.raises(ValueError) as inverted:
        inverse_dpair(a, b)
    assert type(inverted.value) is type(constructed.value)
    assert str(inverted.value) == str(constructed.value)


def coprime_pairs(limit):
    for a in range(1, limit):
        for b in range(a + 1, limit + 1):
            if gcd(a, b) == 1:
                yield a, b


@pytest.mark.parametrize("a,b", list(coprime_pairs(12)))
def test_construction_realizes_pair_and_inverse(a, b):
    p = construct_dpair(a, b)
    assert is_dpair_realization(p, DPair(a, -b))
    # every difference is a or a-(a+b), and the negative one occurs
    diffs = set(derivative(p).diffs)
    assert diffs == {a, -b}
    inv_pair = inverse_dpair(a, b)
    assert is_dpair_realization(inverse(p), inv_pair)
    assert is_feasible_dpair(inv_pair)
    assert (inv_pair.p * a) % (a + b) == 1 if a > 1 else inv_pair.p == 1


def test_construct_orders():
    assert construct_dpair(1, 9).n == 10
    assert construct_dpair(2, 9).n == 11
    assert construct_dpair(5, 13).n == 18


@pytest.mark.parametrize("n", range(3, 9))
def test_two_valued_derivatives_are_exactly_the_feasible_pairs(n):
    realized = set()
    for p in all_perms(n):
        values = set(derivative(p).diffs)
        if len(values) == 2:
            pair = DPair(*sorted(values, reverse=True))
            realized.add((pair.p, pair.q))
            assert is_feasible_dpair(pair)
    # every feasible pair whose construction order is exactly n is realized here
    for a, b in coprime_pairs(n - 1):
        order = b + 1 if a == 1 else a + b
        if order == n:
            assert (a, -b) in realized
    # and the reverse-signed pairs appear too, via reversal
    assert all((-q, -p) in realized for p, q in realized)


def test_reverse_realizes_flipped_signs():
    from permderiv import reverse

    p = construct_dpair(3, 5)
    assert is_dpair_realization(reverse(p), DPair(5, -3))
