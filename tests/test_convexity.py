import itertools

import pytest

from permderiv import (
    PartialColumnFill,
    Permutation,
    StateNotKConvex,
    algorithm1,
    classify_convex,
    derivative,
    enumerate_convex,
    extension_rows,
    interval_rows,
    is_convex,
    is_k_convex,
    reverse,
)
from permderiv.convexity import MAX_CONVEX_ORDER
from permderiv.search import PROPERTIES


def all_perms(n):
    return (Permutation(t) for t in itertools.permutations(range(1, n + 1)))


def naive_is_convex(entries):
    d = [entries[i + 1] - entries[i] for i in range(len(entries) - 1)]
    return all(d[i] <= d[i + 1] for i in range(len(d) - 1))


def fill_of(p, k):
    """The partial fill made of the first k columns of p's matrix."""
    column_rows = {p[i] : i + 1 for i in range(p.n)}
    return PartialColumnFill(p.n, tuple(column_rows[c] for c in range(1, k + 1)))


def test_is_convex_examples():
    assert is_convex(Permutation((6, 4, 2, 1, 3, 5)))
    assert is_convex(Permutation((1, 2, 3, 4, 5)))
    assert not is_convex(Permutation((4, 3, 1, 2)))
    assert is_convex(Permutation((1,)))
    assert is_convex(Permutation((2, 1)))


def test_partial_fill_validation():
    with pytest.raises(ValueError):
        PartialColumnFill(3, (1, 1))
    with pytest.raises(ValueError):
        PartialColumnFill(3, ())
    with pytest.raises(ValueError):
        PartialColumnFill(3, (4,))
    with pytest.raises(ValueError, match=r"rows \(1\.5,\) are not distinct rows in 1\.\.3"):
        PartialColumnFill(3, (1.5,))


def test_interval_rows_and_k_convex():
    state = PartialColumnFill(6, (4, 3, 5))
    assert interval_rows(state) == {3, 4, 5}
    assert is_k_convex(state)
    gap = PartialColumnFill(6, (2, 5))
    assert not is_k_convex(gap)
    single = PartialColumnFill(9, (4,))
    assert is_k_convex(single)


@pytest.mark.parametrize("n", range(1, 9))
def test_convex_prefixes_are_k_convex_intervals(n):
    for p in all_perms(n):
        if not is_convex(p):
            continue
        for k in range(1, n + 1):
            state = fill_of(p, k)
            rows = interval_rows(state)
            assert max(rows) - min(rows) + 1 == k
            assert is_k_convex(state)


def test_interval_property_does_not_imply_convexity():
    p = Permutation((4, 3, 1, 2))
    for k in range(1, 4):
        assert is_k_convex(fill_of(p, k))
    full = fill_of(p, 4)
    assert interval_rows(full) == {1, 2, 3, 4}
    assert not is_k_convex(full)
    assert not is_convex(p)


def test_extension_rows_first_column_cases():
    assert extension_rows(PartialColumnFill(6, (3,))) == {2, 4}
    assert extension_rows(PartialColumnFill(6, (1,))) == {2}
    assert extension_rows(PartialColumnFill(6, (6,))) == {5}


def test_extension_rows_dead_end():
    # reachable from start row 4 at order 7; neither boundary row keeps the
    # column assignment convex
    state = PartialColumnFill(7, (4, 3, 2, 1, 5))
    assert is_k_convex(state)
    assert extension_rows(state) == frozenset()
    assert extension_rows(PartialColumnFill(3, (2, 1, 3))) == frozenset()  # full fill


def test_extension_rows_requires_k_convex_state():
    with pytest.raises(StateNotKConvex):
        extension_rows(PartialColumnFill(6, (2, 5)))


def test_algorithm1_identity_path():
    assert algorithm1(4, lambda candidates: candidates[0]) == Permutation((1, 2, 3, 4))


def test_algorithm1_replays_rotated_zigzag():
    choices = iter((4, 3, 5, 2, 6, 1))
    assert algorithm1(6, lambda candidates: next(choices)) == Permutation((6, 4, 2, 1, 3, 5))


def test_algorithm1_failure():
    choices = iter((4, 3, 2, 1, 5))
    assert algorithm1(7, lambda candidates: next(choices)) is None


def test_algorithm1_rejects_bad_chooser():
    with pytest.raises(ValueError):
        algorithm1(4, lambda candidates: 99)
    with pytest.raises(ValueError, match=r"chooser returned 4, not one of \(2,\)"):
        algorithm1(4, lambda candidates: 1 if len(candidates) == 4 else 4)


def test_algorithm1_names_a_chooser_that_returns_a_non_integer():
    # 1.0 and 2.0 equal candidates, yet are not rows: the chooser is at fault
    with pytest.raises(ValueError) as info:
        algorithm1(3, lambda candidates: float(candidates[0]))
    assert str(info.value) == "chooser returned 1.0, not a row in 1..3"
    with pytest.raises(ValueError) as info:
        algorithm1(3, lambda candidates: 1 if len(candidates) == 3 else float(candidates[0]))
    assert str(info.value) == "chooser returned 2.0, not one of (2,)"


def test_algorithm1_outputs_are_convex():
    import random

    rng = random.Random(5)
    completed = 0
    for _ in range(200):
        p = algorithm1(8, lambda candidates: rng.choice(candidates))
        if p is not None:
            completed += 1
            assert is_convex(p)
    assert completed > 0


def test_enumerate_convex_counts():
    assert {p.entries for p in enumerate_convex(1)} == {(1,)}
    assert len(enumerate_convex(4)) == 6
    six = enumerate_convex(6)
    assert len(six) == 8
    assert Permutation((6, 4, 2, 1, 3, 5)) in six


def grown_by_whole_fill_checks(n):
    """The convex permutations of order n, grown as Algorithm 1 with every choice
    exhausted and each extension found by re-checking the whole fill."""
    results = set()

    def grow(state):
        if state.k == n:
            column_of_row = {row: c + 1 for c, row in enumerate(state.rows_by_column)}
            results.add(Permutation(tuple(column_of_row[r] for r in range(1, n + 1))))
            return
        for candidate in sorted(extension_rows(state)):
            grow(PartialColumnFill(n, state.rows_by_column + (candidate,)))

    for start in range(1, n + 1):
        grow(PartialColumnFill(n, (start,)))
    return results


@pytest.mark.parametrize("n", range(1, 31))
def test_enumerate_equals_growth_by_whole_fill_checks(n):
    assert enumerate_convex(n) == grown_by_whole_fill_checks(n)


@pytest.mark.parametrize("n", range(1, 10))
def test_enumerate_equals_classify_equals_filter(n):
    filtered = {p for p in all_perms(n) if naive_is_convex(p.entries)}
    assert enumerate_convex(n) == filtered
    assert classify_convex(n) == filtered


@pytest.mark.parametrize("n", range(1, 9))
def test_reversal_preserves_convexity(n):
    for p in all_perms(n):
        assert is_convex(p) == is_convex(reverse(p))


def test_classify_families_present():
    n = 6
    members = {p.entries for p in classify_convex(n)}
    assert (1, 2, 3, 4, 5, 6) in members
    assert (6, 1, 2, 3, 4, 5) in members
    assert (5, 1, 2, 3, 4, 6) in members
    assert (6, 4, 2, 1, 3, 5) in members
    # reversals
    assert (5, 4, 3, 2, 1, 6) in members
    assert (5, 3, 1, 2, 4, 6) in members


def test_convex_derivative_shape():
    for p in enumerate_convex(7):
        d = derivative(p).diffs
        assert all(d[i] <= d[i + 1] for i in range(len(d) - 1))


def test_enumerate_convex_order_cap():
    assert MAX_CONVEX_ORDER >= PROPERTIES["convex"].cap
    assert enumerate_convex(MAX_CONVEX_ORDER) == classify_convex(MAX_CONVEX_ORDER)
    with pytest.raises(ValueError) as info:
        enumerate_convex(MAX_CONVEX_ORDER + 1)
    assert str(info.value) == f"convex enumeration limited to order {MAX_CONVEX_ORDER}, got {MAX_CONVEX_ORDER + 1}"
