"""Every construction returns a permutation of {1..n}.

The constructions wrap their entries unchecked (``Permutation._of``), because
each is a permutation by proof; these tests check that claim independently,
with ``sorted(entries) == [1..n]``, over every order up to a few hundred
(every n mod 4 class the block constructions branch on) and, under ``slow``,
at the orders next to MAX_ORDER.
"""
import itertools
from math import gcd

import pytest

from permderiv import (
    MAX_ORDER,
    Permutation,
    SearchSpec,
    anti_identity,
    identity,
    realize_shift,
    reverse_second_half,
    search,
    variation,
)
from permderiv.dpair import construct_dpair
from permderiv.search import costas_prefix_ok, one_costas_prefix_ok

# name -> (construction, least order)
CONSTRUCTIONS = {
    "max_global": (variation.construct_max_global, 2),
    "min_local": (variation.construct_min_local_1costas, 2),
    "maximin": (variation.construct_maximin_abs, 2),
    "pi_perm": (variation.pi_perm, 1),
    "pi_star": (variation.pi_star, 1),
    "identity": (identity, 1),
    "anti_identity": (anti_identity, 1),
}


def is_permutation_of_order(p, n):
    return isinstance(p, Permutation) and sorted(p.entries) == list(range(1, n + 1))


@pytest.mark.parametrize("name", CONSTRUCTIONS)
def test_constructions_are_permutations(name):
    construct, least = CONSTRUCTIONS[name]
    for n in range(least, 301):
        assert is_permutation_of_order(construct(n), n), n


def test_realize_shift_is_a_permutation():
    for n in range(1, 41):
        for s in range(n):
            assert is_permutation_of_order(realize_shift(n, s), n), (n, s)


def test_construct_dpair_is_a_permutation():
    for a in range(1, 75):
        for b in range(a + 1, 151 - a):
            if gcd(a, b) == 1:
                p = construct_dpair(a, b)
                assert is_permutation_of_order(p, b + 1 if a == 1 else a + b), (a, b)


def test_reverse_second_half_is_a_permutation():
    for n in (2, 4, 6):
        for t in itertools.permutations(range(1, n + 1)):
            assert is_permutation_of_order(reverse_second_half(Permutation(t)), n)


@pytest.mark.parametrize("n", range(1, 8))
def test_optimize_witness_is_a_permutation(n):
    # the witness is wrapped unchecked: any predicate, RowsRule or plain callable
    for rule in (one_costas_prefix_ok, costas_prefix_ok, lambda prefix: prefix[0] != 2 or n == 1):
        for direction in ("max", "min"):
            spec = SearchSpec(n=n, prefix_ok=rule, mode="optimize", direction=direction,
                              objective=lambda t: sum(i * v for i, v in enumerate(t)))
            _, witness = search.enumerate(spec)
            assert is_permutation_of_order(witness, n)


@pytest.mark.slow
@pytest.mark.parametrize("n", range(MAX_ORDER - 3, MAX_ORDER + 1))
def test_constructions_are_permutations_at_the_largest_orders(n):
    # about 7 s for the four orders, run with pytest -m slow
    for name, (construct, _) in CONSTRUCTIONS.items():
        assert is_permutation_of_order(construct(n), n), name


@pytest.mark.slow
@pytest.mark.parametrize("a", (1, 7, 499_999))
def test_construct_dpair_is_a_permutation_at_the_largest_order(a):
    assert gcd(a, MAX_ORDER - a) == 1
    assert is_permutation_of_order(construct_dpair(a, MAX_ORDER - a), MAX_ORDER)
