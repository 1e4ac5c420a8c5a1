import itertools

import pytest

from permderiv import (
    Permutation,
    anti_identity,
    construct_max_global,
    construct_maximin_abs,
    construct_min_local_1costas,
    delta_star,
    derivative,
    global_variation,
    identity,
    is_convex,
    is_lipschitz,
    is_mid_alternating,
    local_variation,
    maximin_abs_value,
    min_global_1costas,
    pi_perm,
    pi_star,
    rotate90,
)


def all_perms(n):
    return (Permutation(t) for t in itertools.permutations(range(1, n + 1)))


def distinct_diffs(p):
    d = derivative(p).diffs
    return len(set(d)) == len(d)


def test_local_variation_examples():
    assert local_variation(Permutation((1, 3, 4, 2, 5))) == 3
    assert local_variation(identity(6)) == 1
    assert local_variation(Permutation((4, 6, 2, 7, 3, 8, 1, 5))) == 7
    assert local_variation(Permutation((1,))) == 0


def test_global_variation_examples():
    assert global_variation(Permutation((4, 6, 2, 7, 3, 8, 1, 5))) == 31
    assert global_variation(Permutation((4, 5, 2, 7, 1, 6, 3))) == 23
    assert global_variation(identity(9)) == 8
    assert global_variation(Permutation((1,))) == 0


@pytest.mark.parametrize("n", range(2, 8))
def test_local_variation_extremes(n):
    for p in all_perms(n):
        d = local_variation(p)
        assert 1 <= d <= n - 1
        if d == 1:
            assert p in (identity(n), anti_identity(n))
        adjacent = abs(p.entries.index(1) - p.entries.index(n)) == 1
        assert (d == n - 1) == adjacent, p


@pytest.mark.parametrize("n", range(2, 8))
def test_global_variation_minimum(n):
    values = {p: global_variation(p) for p in all_perms(n)}
    assert min(values.values()) == n - 1
    assert {p for p, v in values.items() if v == n - 1} == {identity(n), anti_identity(n)}


def test_lipschitz():
    assert is_lipschitz(identity(5), 1)
    assert is_lipschitz(anti_identity(5), 1)
    assert not is_lipschitz(Permutation((2, 4, 1, 3)), 2)
    assert is_lipschitz(Permutation((2, 4, 1, 3)), 3)
    with pytest.raises(ValueError):
        is_lipschitz(identity(3), 0)


@pytest.mark.parametrize("n", range(2, 7))
def test_lipschitz_matches_pairwise_definition(n):
    for p in all_perms(n):
        for bound in range(1, n):
            pairwise = all(
                abs(p[i] - p[j]) <= bound * abs(i - j)
                for i in range(n)
                for j in range(n)
            )
            assert is_lipschitz(p, bound) == pairwise == (local_variation(p) <= bound)


def test_only_identity_shapes_are_one_lipschitz():
    for n in range(2, 7):
        ones = {p for p in all_perms(n) if is_lipschitz(p, 1)}
        assert ones == {identity(n), anti_identity(n)}


def test_mid_alternating_examples():
    assert is_mid_alternating(Permutation((4, 6, 2, 7, 3, 8, 1, 5)))
    assert not is_mid_alternating(Permutation((1, 2, 3, 4)))
    assert is_mid_alternating(Permutation((4, 5, 2, 7, 1, 6, 3)))


def mid_alternating_by_sides(p):
    """Consecutive entries on opposite sides: {1..k} and {k+1..2k}, with the pivot k+1 on both at order 2k+1."""
    k, odd = divmod(p.n, 2)
    low, high = range(1, k + 1 + odd), range(k + 1, p.n + 1)
    return all((a in low and b in high) or (a in high and b in low) for a, b in zip(p.entries, p.entries[1:]))


@pytest.mark.parametrize("n", range(1, 9))
def test_mid_alternating_matches_its_side_definition(n):
    for p in all_perms(n):
        assert is_mid_alternating(p) == mid_alternating_by_sides(p), p


def test_delta_star_values():
    assert delta_star(8) == 31
    assert delta_star(7) == 23
    assert delta_star(5) == 11
    assert delta_star(2) == 1
    assert delta_star(3) == 3


@pytest.mark.parametrize("n", range(2, 9))
def test_delta_star_matches_exhaustive_maximum(n):
    assert delta_star(n) == max(global_variation(p) for p in all_perms(n))


@pytest.mark.parametrize("n", range(3, 9))
def test_max_global_characterization(n):
    if n % 2 == 0:
        endpoint_sets = ({n // 2, n // 2 + 1},)
    else:
        endpoint_sets = ({(n - 1) // 2, (n + 1) // 2}, {(n + 1) // 2, (n + 3) // 2})
    for p in all_perms(n):
        extremal = global_variation(p) == delta_star(n)
        characterized = is_mid_alternating(p) and {p[0], p[-1]} in endpoint_sets
        assert extremal == characterized, p


@pytest.mark.parametrize("n", range(2, 26))
def test_construct_max_global(n):
    p = construct_max_global(n)
    assert global_variation(p) == delta_star(n)
    assert is_mid_alternating(p)
    k = n // 2
    assert {p[0], p[-1]} == {k, k + 1}


def test_construct_max_global_examples():
    assert construct_max_global(8) == Permutation((4, 6, 1, 7, 2, 8, 3, 5))
    assert construct_max_global(7) == Permutation((3, 5, 1, 6, 2, 7, 4))
    assert construct_max_global(2) == Permutation((1, 2))


def test_pi_perm_examples():
    assert pi_perm(4) == Permutation((2, 3, 1, 4))
    assert pi_perm(5) == Permutation((3, 4, 2, 5, 1))
    assert pi_perm(1) == Permutation((1,))


@pytest.mark.parametrize("k", range(2, 30))
def test_pi_perm_derivative_is_alternating_ramp(k):
    expected = tuple(j if j % 2 else -j for j in range(1, k))
    assert derivative(pi_perm(k)).diffs == expected


def test_pi_star_examples():
    assert pi_star(6) == Permutation((6, 4, 2, 1, 3, 5))
    assert derivative(pi_star(6)).diffs == (-2, -2, -1, 2, 2)
    assert pi_star(6) == rotate90(pi_perm(6))


@pytest.mark.parametrize("k", range(1, 25))
def test_pi_star_is_convex(k):
    assert is_convex(pi_star(k))


def test_min_local_construction_known_derivatives():
    assert derivative(construct_min_local_1costas(12)).diffs == (1, -2, 3, -4, 5, 6, -5, 4, -3, 2, -1)
    assert derivative(construct_min_local_1costas(11)).diffs == (5, -4, 3, -2, 1, -6, -1, 2, -3, 4)
    assert derivative(construct_min_local_1costas(13)).diffs == (6, -5, 4, -3, 2, -1, -7, 1, -2, 3, -4, 5)


@pytest.mark.parametrize("n", range(2, 25))
def test_min_local_construction_properties(n):
    p = construct_min_local_1costas(n)
    assert distinct_diffs(p)
    assert local_variation(p) == (n + 1) // 2
    assert global_variation(p) == min_global_1costas(n)


@pytest.mark.parametrize("n", range(2, 9))
def test_one_costas_variation_bounds_exhaustive(n):
    eligible = [p for p in all_perms(n) if distinct_diffs(p)]
    assert min(local_variation(p) for p in eligible) == (n + 1) // 2
    assert min(global_variation(p) for p in eligible) == min_global_1costas(n)


def test_min_global_values():
    assert min_global_1costas(12) == 36
    assert min_global_1costas(5) == 7
    assert min_global_1costas(2) == 1
    assert min_global_1costas(11) == 31  # the order-11 witness sums to 31


def test_maximin_examples():
    assert construct_maximin_abs(6) == Permutation((4, 1, 5, 2, 6, 3))
    assert construct_maximin_abs(7) == Permutation((1, 5, 2, 6, 3, 7, 4))
    assert construct_maximin_abs(2) == Permutation((2, 1))
    assert maximin_abs_value(7) == 3


@pytest.mark.parametrize("n", range(2, 9))
def test_maximin_exhaustive(n):
    best = max(min(abs(d) for d in derivative(p).diffs) for p in all_perms(n))
    assert best == maximin_abs_value(n) == n // 2


@pytest.mark.parametrize("n", (2, 3, 10, 11, 100, 101, 10**4))
def test_maximin_construction_attains_bound(n):
    p = construct_maximin_abs(n)
    assert min(abs(d) for d in derivative(p).diffs) == n // 2


@pytest.mark.parametrize("n", (997, 1000, 2001, 5000))
def test_constructions_scale_to_large_orders(n):
    p = construct_min_local_1costas(n)
    assert distinct_diffs(p)
    assert local_variation(p) == (n + 1) // 2
    assert global_variation(p) == min_global_1costas(n)
    q = construct_max_global(n)
    assert global_variation(q) == delta_star(n)
    assert is_mid_alternating(q)


def test_order_bounds():
    with pytest.raises(ValueError):
        delta_star(1)
    with pytest.raises(ValueError):
        construct_max_global(1)
    with pytest.raises(ValueError):
        pi_perm(0)
