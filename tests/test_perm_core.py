import itertools
import math
import random

import pytest

from permderiv import (
    MAX_ORDER,
    Derivative,
    InconsistentTree,
    InvalidTree,
    NotRealizable,
    Permutation,
    WeightedTree,
    anti_identity,
    complement,
    derivative,
    descent_count,
    from_tree,
    identity,
    integrate,
    inverse,
    is_grassmannian,
    is_realizable,
    matrix,
    parse_int_sequence,
    realize_shift,
    reverse,
    rotate90,
    sum_characteristic,
    variation,
)
from permderiv.dpair import construct_dpair, inverse_dpair


def all_perms(n):
    return (Permutation(t) for t in itertools.permutations(range(1, n + 1)))


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation(())
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    with pytest.raises(ValueError):
        Permutation((2, 3))
    assert Permutation((1,)).n == 1


def test_string_round_trip():
    p = Permutation.from_string("5,2,7,4,1,6,3")
    assert str(p) == "5,2,7,4,1,6,3"
    assert str(Derivative.from_string("-3,5,-3,-3,5,-3")) == "-3,5,-3,-3,5,-3"


def test_derivative_examples():
    assert derivative(Permutation((5, 2, 7, 4, 1, 6, 3))).diffs == (-3, 5, -3, -3, 5, -3)
    assert derivative(Permutation((1, 2, 3, 4))).diffs == (1, 1, 1)
    assert derivative(Permutation((3, 5, 1, 6, 2, 4))).diffs == (2, -4, 5, -4, 2)
    assert derivative(Permutation((1,))).diffs == ()


def test_derivative_validation():
    with pytest.raises(ValueError):
        Derivative((0,))
    with pytest.raises(ValueError):
        Derivative((3,))  # order 2 cannot jump by 3


def test_integrate_examples():
    assert integrate((-3, 5, -3, -3, 5, -3)) == Permutation((5, 2, 7, 4, 1, 6, 3))
    assert integrate((1, 1, 1)) == Permutation((1, 2, 3, 4))
    assert integrate(()) == Permutation((1,))
    with pytest.raises(NotRealizable):
        integrate((1, -1))


def test_integrate_rejects_orders_above_the_cap():
    # (1,) * MAX_ORDER is realizable, but its order MAX_ORDER + 1 is past the
    # cap the constructor enforces; the check comes before any other work.
    with pytest.raises(ValueError, match=f"order must be between 1 and {MAX_ORDER}, got {MAX_ORDER + 1}") as info:
        integrate((1,) * MAX_ORDER)
    assert not isinstance(info.value, NotRealizable)
    p = integrate((1,) * (MAX_ORDER - 1))
    assert p.n == MAX_ORDER
    assert p.entries == tuple(range(1, MAX_ORDER + 1))


# Every entry point that takes an order, with the least order it allows.
ORDER_CHECKED = [
    ("Permutation", lambda n: Permutation(tuple(range(1, n + 1))), 1),
    ("integrate", lambda n: integrate((1,) * (n - 1)), 1),
    ("realize_shift", lambda n: realize_shift(n, 0), 1),
    ("pi_perm", variation.pi_perm, 1),
    ("pi_star", variation.pi_star, 1),
    *((f.__name__, f, 2) for f in (
        variation.delta_star, variation.construct_max_global, variation.construct_min_local_1costas,
        variation.min_global_1costas, variation.maximin_abs_value, variation.construct_maximin_abs,
    )),
    ("construct_dpair", lambda n: construct_dpair(1, n - 1), 1),
    ("inverse_dpair", lambda n: inverse_dpair(1, n - 1), 1),
]
# integrate's input always has order at least 1, and the dpair steps are
# checked before their order a+b, so these reach the check only past the cap.
ABOVE_CAP_ONLY = {"integrate", "construct_dpair", "inverse_dpair"}
ORDER_CASES = [(name, call, minimum, n) for name, call, minimum in ORDER_CHECKED
               for n in (minimum - 1, MAX_ORDER + 1) if n > MAX_ORDER or name not in ABOVE_CAP_ONLY]


@pytest.mark.parametrize("call,minimum,n", [case[1:] for case in ORDER_CASES],
                         ids=[f"{name}-{n}" for name, _, _, n in ORDER_CASES])
def test_every_order_check_gives_the_same_message(call, minimum, n):
    with pytest.raises(ValueError) as info:
        call(n)
    assert str(info.value) == f"order must be between {minimum} and {MAX_ORDER}, got {n}"


def test_integrate_accepts_derivative_objects():
    d = derivative(Permutation((3, 5, 1, 6, 2, 4)))
    assert integrate(d) == Permutation((3, 5, 1, 6, 2, 4))


def test_sum_characteristic_examples():
    assert sum_characteristic((-3, 5, -3, -3, 5, -3)) == frozenset(range(-4, 3))
    assert sum_characteristic((1,) * 6) == frozenset(range(0, 7))
    assert sum_characteristic((-4, 1, 1, 1, 2, 1)) == frozenset(range(-4, 3))
    assert sum_characteristic(()) == frozenset({0})


def test_is_realizable_examples():
    assert is_realizable((-3, 5, -3, -3, 5, -3))
    assert not is_realizable((1, -1))
    assert is_realizable(())


@pytest.mark.parametrize(
    "z",
    [(1.0, 1.0), (1, 2.0, -1), (0.5,), ("1",), ("1", "1"), (1, None)],
    ids=["floats", "one-float", "half", "string", "strings", "none"],
)
def test_non_integer_entries_are_not_realizable(z):
    assert not is_realizable(z)
    with pytest.raises(NotRealizable) as info:
        integrate(z)
    assert "is not an integer" in str(info.value)
    assert "\n" not in str(info.value)


def test_invalid_input_reasons_stay_short_for_long_inputs():
    # 10^5 entries: the reasons name the order and the first offending
    # entry or token, never the whole input.
    z = [1] * 10**5
    z[70000] = -1
    with pytest.raises(NotRealizable) as info:
        integrate(z)
    reason = str(info.value)
    assert len(reason) < 200 and "\n" not in reason
    assert f"order {10**5 + 1}" in reason and "entry 70001" in reason
    text = ",".join(["1"] * 99999 + ["x"])
    with pytest.raises(ValueError) as info:
        parse_int_sequence(text)
    reason = str(info.value)
    assert len(reason) < 200 and "\n" not in reason
    assert "token 100000 is 'x'" in reason


@pytest.mark.parametrize("text,token", [("1" * 5000, 1), ("1,2,-" + "3" * 5000, 3), ("4, +" + "5" * 4301 + " ,6", 2)])
def test_too_long_integer_token_is_out_of_range_not_malformed(text, token):
    with pytest.raises(ValueError) as info:
        parse_int_sequence(text)
    reason = str(info.value)
    assert len(reason) < 200 and "\n" not in reason
    assert reason.startswith(f"integer out of range: token {token} has ")


@pytest.mark.parametrize(
    "z,entry",
    [((1, -1), 2), ((2,), 1), ((1, 1, -1, 5), 3), ((3, -1, -1, 4), 4), ((-1, 3), 2)],
)
def test_unrealizable_reason_names_the_first_breaking_entry(z, entry):
    with pytest.raises(NotRealizable, match=f"at entry {entry} "):
        integrate(z)


def test_bool_entries_count_as_integers():
    # bool is an int subclass, as Permutation and Derivative also accept
    assert is_realizable((True, True))
    p = integrate((True, True))
    assert p == Permutation((1, 2, 3))
    assert all(type(v) is int for v in p.entries)
    assert not is_realizable((True, False))
    with pytest.raises(NotRealizable):
        integrate((True, False))


@pytest.mark.parametrize("n", range(1, 9))
def test_round_trip_exhaustive(n):
    for p in all_perms(n):
        assert integrate(derivative(p)) == p


def test_round_trip_random_large():
    rng = random.Random(20240817)
    for n in (50, 500, 4000):
        entries = list(range(1, n + 1))
        rng.shuffle(entries)
        p = Permutation(tuple(entries))
        assert integrate(derivative(p)) == p


@pytest.mark.parametrize("n", range(2, 7))
def test_realizable_agrees_with_integrate(n):
    rng = random.Random(99)
    candidates = [tuple(derivative(p)) for p in all_perms(n)]
    candidates += [tuple(rng.randint(-n, n) for _ in range(n - 1)) for _ in range(300)]
    for z in candidates:
        ok = is_realizable(z)
        try:
            p = integrate(z)
            succeeded = True
            assert tuple(derivative(p)) == z
        except NotRealizable:
            succeeded = False
        assert ok == succeeded


def test_realize_shift_examples():
    assert realize_shift(7, 4) == Permutation((5, 1, 2, 3, 4, 6, 7))
    assert realize_shift(5, 0) == identity(5)
    third = realize_shift(5, 2)
    assert third == Permutation((3, 1, 2, 4, 5))
    assert sum_characteristic(derivative(third).diffs) == frozenset(range(-2, 3))
    with pytest.raises(ValueError):
        realize_shift(5, 5)


@pytest.mark.parametrize("n", range(1, 8))
def test_realize_shift_covers_every_characteristic(n):
    seen = {sum_characteristic(derivative(realize_shift(n, s)).diffs) for s in range(n)}
    assert seen == {frozenset(range(-s, n - s)) for s in range(n)}


@pytest.mark.parametrize("n", range(1, 8))
def test_sum_characteristic_classes(n):
    groups = {}
    for p in all_perms(n):
        groups.setdefault(sum_characteristic(derivative(p).diffs), []).append(p)
    assert len(groups) == n
    for members in groups.values():
        assert len(members) == math.factorial(n - 1)
        assert len({p[0] for p in members}) == 1
    # distinct first entries land in distinct classes
    firsts = {members[0][0]: key for key, members in groups.items()}
    assert len(firsts) == n


def test_from_tree_worked_example():
    t = WeightedTree(6, ((1, 2, 3), (2, 3, -5), (4, 6, -1), (1, 4, 2), (2, 5, -4)))
    assert from_tree(t) == Permutation((3, 6, 1, 5, 2, 4))


def test_from_tree_path_equals_integrate():
    p = Permutation((5, 2, 7, 4, 1, 6, 3))
    d = derivative(p).diffs
    path = WeightedTree(7, tuple((i, i + 1, d[i - 1]) for i in range(1, 7)))
    assert from_tree(path) == integrate(d) == p


def test_from_tree_star():
    target = Permutation((2, 1, 3))
    star = WeightedTree(3, tuple((1, j, target[j - 1] - target[0]) for j in (2, 3)))
    assert from_tree(star) == target


def test_from_tree_errors():
    with pytest.raises(InvalidTree):
        WeightedTree(4, ((1, 2, 1), (3, 4, 1), (1, 2, 2)))  # disconnected
    with pytest.raises(InvalidTree):
        WeightedTree(3, ((1, 2, 1),))  # too few edges
    with pytest.raises(InvalidTree):
        WeightedTree(3, ((2, 1, 1), (2, 3, 1)))  # endpoints not ordered
    with pytest.raises(InconsistentTree):
        from_tree(WeightedTree(3, ((1, 2, 5), (2, 3, 1))))


@pytest.mark.parametrize("n", range(2, 7))
def test_from_tree_random_spanning_trees(n):
    rng = random.Random(7 * n)
    for p in all_perms(n):
        vertices = list(range(2, n + 1))
        rng.shuffle(vertices)
        edges = []
        joined = [1]
        for v in vertices:
            u = rng.choice(joined)
            i, j = min(u, v), max(u, v)
            edges.append((i, j, p[j - 1] - p[i - 1]))
            joined.append(v)
        assert from_tree(WeightedTree(n, tuple(edges))) == p


def test_transforms_basic():
    assert reverse(Permutation((1, 2, 3))) == Permutation((3, 2, 1))
    assert complement(Permutation((1, 2, 3))) == Permutation((3, 2, 1))
    assert inverse(Permutation((2, 3, 1))) == Permutation((3, 1, 2))
    assert rotate90(Permutation((2, 3, 1, 4))) == Permutation((4, 2, 1, 3))
    big = Permutation((1, 6, 11, 16, 3, 8, 13, 18, 5, 10, 15, 2, 7, 12, 17, 4, 9, 14))
    assert inverse(big) == Permutation((1, 12, 5, 16, 9, 2, 13, 6, 17, 10, 3, 14, 7, 18, 11, 4, 15, 8))


def test_rotate90_matches_matrix_rotation():
    for t in itertools.permutations(range(1, 6)):
        p = Permutation(t)
        m = matrix(p)
        n = p.n
        rotated = tuple(tuple(m[j][n - 1 - i] for j in range(n)) for i in range(n))
        assert matrix(rotate90(p)) == rotated


@pytest.mark.parametrize("n", range(2, 8))
def test_derivative_under_transforms(n):
    for p in all_perms(n):
        d = derivative(p).diffs
        assert derivative(reverse(p)).diffs == tuple(-x for x in reversed(d))
        assert derivative(complement(p)).diffs == tuple(-x for x in d)


def test_transforms_generate_dihedral_group():
    p = Permutation((1, 3, 4, 2))  # no symmetry of its own
    images = {p}
    frontier = [p]
    while frontier:
        q = frontier.pop()
        for f in (reverse, complement, inverse, rotate90):
            image = f(q)
            if image not in images:
                images.add(image)
                frontier.append(image)
    assert len(images) == 8


def test_descents_and_grassmannian():
    assert descent_count(Permutation((1, 3, 2, 4))) == 1
    assert is_grassmannian(Permutation((1, 3, 2, 4)))
    assert descent_count(Permutation((1, 2, 3, 4))) == 0
    assert not is_grassmannian(Permutation((1, 2, 3, 4)))
    assert descent_count(Permutation((5, 2, 7, 4, 1, 6, 3))) == 4


@pytest.mark.parametrize("n", range(2, 7))
def test_grassmannian_equals_one_negative_diff(n):
    for p in all_perms(n):
        negatives = sum(1 for d in derivative(p).diffs if d < 0)
        assert is_grassmannian(p) == (negatives == 1)
        assert descent_count(p) == negatives


def test_identity_and_anti_identity_derivative_signs():
    n = 6
    assert all(d == 1 for d in derivative(identity(n)).diffs)
    assert all(d == -1 for d in derivative(anti_identity(n)).diffs)
    # the only permutations with single-sign derivatives
    for p in all_perms(4):
        d = derivative(p).diffs
        if all(x > 0 for x in d):
            assert p == identity(4)
        if all(x < 0 for x in d):
            assert p == anti_identity(4)


def test_matrix_bound():
    with pytest.raises(ValueError):
        matrix(identity(65))
    assert matrix(Permutation((2, 1))) == ((0, 1), (1, 0))
