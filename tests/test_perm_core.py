import itertools
import math
import random

import pytest

from permderiv import (
    MAX_ORDER,
    BuilderState,
    Derivative,
    InconsistentTree,
    InvalidTree,
    NotRealizable,
    PartialColumnFill,
    Permutation,
    SearchSpec,
    WeightedTree,
    algorithm1,
    anti_identity,
    classify_convex,
    complement,
    derivative,
    descent_count,
    enumerate_convex,
    from_tree,
    gamma,
    identity,
    integrate,
    inverse,
    is_costas_subpermutation,
    is_grassmannian,
    is_k_costas,
    is_realizable,
    matrix,
    parse_int_sequence,
    realize_shift,
    reverse,
    rotate90,
    sum_characteristic,
    table,
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
    ("identity", identity, 1),
    ("anti_identity", anti_identity, 1),
    ("pi_perm", variation.pi_perm, 1),
    ("pi_star", variation.pi_star, 1),
    *((f.__name__, f, 2) for f in (
        variation.delta_star, variation.construct_max_global, variation.construct_min_local_1costas,
        variation.min_global_1costas, variation.maximin_abs_value, variation.construct_maximin_abs,
    )),
    ("construct_dpair", lambda n: construct_dpair(1, n - 1), 1),
    ("inverse_dpair", lambda n: inverse_dpair(1, n - 1), 1),
    ("algorithm1", lambda n: algorithm1(n, min), 1),
    ("enumerate_convex", enumerate_convex, 1),
    ("classify_convex", classify_convex, 1),
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


# A non-integer order fails at the same gate as an out-of-range one, with its
# message; before, the closed forms answered (delta_star(7.5) == 26.0) and the
# rest raised TypeError.  So do a non-integer k, shift and partial-permutation
# order.  bool is an int subclass and stays accepted.
NON_INTEGER_ORDERS = [
    ("delta_star", lambda: variation.delta_star(7.5), f"order must be between 2 and {MAX_ORDER}, got 7.5"),
    ("min_global_1costas", lambda: variation.min_global_1costas(6.0), f"order must be between 2 and {MAX_ORDER}, got 6.0"),
    ("maximin_abs_value", lambda: variation.maximin_abs_value(7.5), f"order must be between 2 and {MAX_ORDER}, got 7.5"),
    ("identity", lambda: identity(3.0), f"order must be between 1 and {MAX_ORDER}, got 3.0"),
    ("pi_perm", lambda: variation.pi_perm(3.0), f"order must be between 1 and {MAX_ORDER}, got 3.0"),
    ("construct_dpair", lambda: construct_dpair(1, 2.0), "need 1 <= a < b, got a=1, b=2.0"),
    ("enumerate_convex", lambda: enumerate_convex(3.0), f"order must be between 1 and {MAX_ORDER}, got 3.0"),
    ("classify_convex", lambda: classify_convex(3.0), f"order must be between 1 and {MAX_ORDER}, got 3.0"),
    ("algorithm1", lambda: algorithm1(3.0, min), f"order must be between 1 and {MAX_ORDER}, got 3.0"),
    ("gamma", lambda: gamma(3.0), "search order must be between 1 and 64, got 3.0"),
    ("SearchSpec", lambda: SearchSpec(n=3.0, prefix_ok=min), "search order must be between 1 and 64, got 3.0"),
    ("table", lambda: table("one-costas", 2.0), "order for one-costas must be 1..12, got 2.0"),
    ("is_k_costas", lambda: is_k_costas(identity(3), 1.0), "k must be between 0 and 2, got 1.0"),
    ("realize_shift", lambda: realize_shift(3, 1.0), "shift must be between 0 and 2, got 1.0"),
    ("BuilderState", lambda: BuilderState(3.0, (1,)), "prefix (1,) is not distinct columns in 1..3.0"),
    ("PartialColumnFill", lambda: PartialColumnFill(3.0, (1,)), "rows (1,) are not distinct rows in 1..3.0"),
]


@pytest.mark.parametrize("call,message", [case[1:] for case in NON_INTEGER_ORDERS],
                         ids=[case[0] for case in NON_INTEGER_ORDERS])
def test_non_integer_orders_are_rejected_at_the_order_gates(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == message


# Inputs of length <= 2 repeat no difference, so the three partial-permutation
# judges differ only at the one gate they share: both builders raise exactly
# when is_costas_subpermutation says no.
PARTIAL_CASES = [
    (3, (1,), True),
    (3, (3, 1), True),
    (3.0, (1,), False),
    ("3", (1,), False),
    (3, (1.5,), False),
    (3, (2, 1.5), False),
    (3, (2, 2), False),
    (3, (0,), False),
    (3, (1, 4), False),
    (3, (), False),
]


@pytest.mark.parametrize("n,values,ok", PARTIAL_CASES)
def test_partial_permutation_gate_is_shared(n, values, ok):
    assert is_costas_subpermutation(values, n) is ok
    for build in (BuilderState, PartialColumnFill):
        if ok:
            build(n, values)
        else:
            with pytest.raises(ValueError):
                build(n, values)


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


@pytest.mark.parametrize("text,token", [
    ("1" * 5000, 1), ("1,2,-" + "3" * 5000, 3), ("4, +" + "5" * 4301 + " ,6", 2),
    # the second, naming pass finds the bad token far into a long input
    pytest.param(",".join(["1"] * 99999 + ["2" * 5000]), 100000, id="last-of-100000"),
])
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


def test_realizable_agrees_with_integrate_on_every_short_sequence():
    # every z in {-4..4}^k, k <= 4, and each with one entry that is not an int
    for k in range(5):
        for z in itertools.product(range(-4, 5), repeat=k):
            try:
                integrate(z)
                succeeded = True
            except NotRealizable:
                succeeded = False
            assert is_realizable(z) == succeeded, z
            for j, bad in itertools.product(range(k), (1.0, "1", None)):
                spoiled = z[:j] + (bad,) + z[j + 1:]
                assert not is_realizable(spoiled)
                with pytest.raises(NotRealizable, match="is not an integer"):
                    integrate(spoiled)


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
    with pytest.raises(InvalidTree, match="vertex count must be positive, got 0"):
        WeightedTree(0, ())
    with pytest.raises(InvalidTree, match=r"edge \(1, 2\) is not \(i, j, weight\)"):
        WeightedTree(2, ((1, 2),))
    with pytest.raises(InvalidTree, match=r"edge \(1\.0, 2, 1\) has endpoints that are not both integers"):
        WeightedTree(2, ((1.0, 2, 1),))
    with pytest.raises(InvalidTree, match=r"edge \(1, 2\.0, 1\) has endpoints that are not both integers"):
        WeightedTree(2, ((1, 2.0, 1),))
    with pytest.raises(InvalidTree, match=r"vertex count must be an integer, got 2\.0"):
        WeightedTree(2.0, ((1, 2, 1),))
    with pytest.raises(InvalidTree, match="vertex count must be an integer, got '2'"):
        WeightedTree('2', ())
    with pytest.raises(InconsistentTree):
        from_tree(WeightedTree(3, ((1, 2, 5), (2, 3, 1))))


@pytest.mark.parametrize("edges", [
    ((1, 2, 1), (2, 3, 5)),  # values 0, 1, 6: distinct, but they span 6 > n-1
    ((1, 2, 2), (2, 3, -2)),  # values 0, 2, 0: they span n-1, but 0 repeats
], ids=["distinct-too-wide", "repeated"])
def test_from_tree_rejects_values_that_are_not_consecutive(edges):
    with pytest.raises(InconsistentTree, match=r"tree weights do not shift onto \{1\.\.3\}"):
        from_tree(WeightedTree(3, edges))


@pytest.mark.slow
def test_from_tree_rejects_a_consistent_tree_past_the_order_cap():
    # about 4 s: the path 1, 2, ..., MAX_ORDER + 1 is consistent, so only the order is wrong
    n = MAX_ORDER + 1
    path = WeightedTree(n, tuple((i, i + 1, 1) for i in range(1, n)))
    with pytest.raises(ValueError, match=f"order must be between 1 and {MAX_ORDER}, got {n}") as info:
        from_tree(path)
    assert not isinstance(info.value, InconsistentTree)


@pytest.mark.parametrize("weight", [1.0, 1.5, "1"])
def test_tree_weights_must_be_integers(weight):
    with pytest.raises(InvalidTree) as info:
        WeightedTree(2, ((1, 2, weight),))
    assert str(info.value) == f"edge (1, 2, {weight!r}) has weight {weight!r}, not an integer"


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
