import itertools

import pytest

from permderiv import triangle
from permderiv import (
    BuilderState,
    JedwabWitness,
    Permutation,
    SignedPermutation,
    complement,
    extend,
    gamma,
    identity,
    inverse,
    is_centrosymmetric,
    is_costas,
    is_costas_centrosymmetric,
    is_costas_half,
    is_costas_signed,
    is_costas_subpermutation,
    is_k_costas,
    jedwab_witness,
    permitted_positions,
    reverse,
    reverse_second_half,
    rotate90,
    start_state,
)


def all_perms(n):
    return (Permutation(t) for t in itertools.permutations(range(1, n + 1)))


def naive_is_costas(entries):
    n = len(entries)
    for k in range(1, n):
        diffs = [entries[i + k] - entries[i] for i in range(n - k)]
        if len(set(diffs)) != len(diffs):
            return False
    return True


def naive_is_one_costas(entries):
    diffs = [entries[i + 1] - entries[i] for i in range(len(entries) - 1)]
    return len(set(diffs)) == len(diffs)


def test_k_costas_examples():
    assert is_k_costas(Permutation((1, 3, 4, 2, 5)), 1)
    assert not is_k_costas(Permutation((5, 2, 7, 4, 1, 6, 3)), 1)
    for p in all_perms(4):
        assert is_k_costas(p, 0)
    with pytest.raises(ValueError):
        is_k_costas(Permutation((1, 2, 3)), 3)


def test_costas_examples():
    assert is_costas(Permutation((4, 3, 1, 2)))
    assert not is_costas(Permutation((3, 5, 1, 6, 2, 4)))
    assert is_costas(Permutation((1,)))


@pytest.mark.parametrize("n", range(2, 7))
def test_k_costas_monotone_and_matches_naive(n):
    for p in all_perms(n):
        flags = [is_k_costas(p, k) for k in range(n)]
        for k in range(1, n):
            if flags[k]:
                assert flags[k - 1]
        assert flags[n - 1] == naive_is_costas(p.entries)
        assert flags[1] == naive_is_one_costas(p.entries) if n >= 2 else True


@pytest.mark.parametrize("n", range(1, 7))
def test_k_costas_matches_built_triangle(n):
    for p in all_perms(n):
        for k in range(n):
            assert is_k_costas(p, k) == triangle.distinct_through(triangle.build(p.entries), k), (p, k)
        assert is_costas(p) == triangle.distinct_through(triangle.build(p.entries), n - 1)
        for k in (-1, n):
            with pytest.raises(ValueError):
                is_k_costas(p, k)


@pytest.mark.parametrize("n", range(1, 7))
def test_costas_closed_under_dihedral_group(n):
    for p in all_perms(n):
        if not is_costas(p):
            continue
        images = {p}
        frontier = [p]
        while frontier:
            q = frontier.pop()
            for f in (reverse, complement, inverse, rotate90):
                image = f(q)
                if image not in images:
                    images.add(image)
                    frontier.append(image)
        for image in images:
            assert is_costas(image)


def test_permitted_positions_examples():
    assert permitted_positions(BuilderState(4, (1, 3))) == {2, 4}
    assert permitted_positions(BuilderState(3, (2,))) == {1, 3}
    assert permitted_positions(BuilderState(4, (2, 4, 3))) == {1}


def test_builder_state_invariants():
    state = BuilderState(5, (2, 5, 1))
    assert state.used_columns == {1, 2, 5}
    assert state.used_diffs == {3, -4}
    with pytest.raises(ValueError):
        BuilderState(5, (1, 3, 5))  # repeated consecutive difference
    with pytest.raises(ValueError):
        BuilderState(3, (1, 1))
    with pytest.raises(ValueError):
        BuilderState(3, ())
    with pytest.raises(ValueError, match=r"prefix \(1\.5,\) is not distinct columns in 1\.\.3"):
        BuilderState(3, (1.5,))


def test_extend_checks_permission():
    state = start_state(4, 1)
    state = extend(state, 3)
    assert state.prefix == (1, 3)
    with pytest.raises(ValueError):
        extend(state, 3)  # column used
    with pytest.raises(ValueError, match=r"column 2\.0 is not permitted after prefix \(1, 3\)"):
        extend(state, 2.0)  # equals a permitted column, yet is no column
    full = extend(extend(start_state(3, 2), 3), 1)
    assert permitted_positions(full) == frozenset()


@pytest.mark.parametrize("n", range(1, 8))
def test_builder_reaches_exactly_the_distinct_derivative_permutations(n):
    reached = set()

    def grow(state):
        if len(state.prefix) == n:
            reached.add(state.prefix)
            return
        for column in sorted(permitted_positions(state)):
            grow(extend(state, column))

    for first in range(1, n + 1):
        grow(start_state(n, first))
    expected = {p.entries for p in all_perms(n) if naive_is_one_costas(p.entries)}
    assert reached == expected


def test_jedwab_witness_worked_example():
    witness = jedwab_witness(Permutation((4, 3, 1, 2)))
    assert witness is not None
    (r, s), (u, v) = witness.first
    (a, b), (c, d) = witness.second
    assert b - d == s - v and a - c == -(r - u)


def test_jedwab_witness_small_orders():
    assert jedwab_witness(Permutation((1, 2))) is None
    # order 3 Costas permutations may or may not admit one; just exercise the scan
    jedwab_witness(Permutation((2, 1, 3)))


@pytest.mark.parametrize(
    "first,second,reason",
    [
        (((1, 2), (1, 2)), ((3, 4), (2, 1)), "first segment is degenerate"),
        (((1, 2), (2, 3)), ((1, 2), (2, 3)), "witness pairs coincide"),
        (((1, 2), (2, 3)), ((3, 4), (4, 6)), "displacements do not mirror"),
    ],
)
def test_jedwab_witness_rejects_invalid_pairs(first, second, reason):
    with pytest.raises(ValueError, match=reason):
        JedwabWitness(first, second)


@pytest.mark.parametrize("n", (4, 5, 6))
def test_jedwab_witness_for_every_costas(n):
    for p in all_perms(n):
        if is_costas(p):
            assert jedwab_witness(p) is not None


def test_centrosymmetric():
    assert is_centrosymmetric(Permutation((2, 3, 5, 8, 1, 4, 6, 7)))
    assert is_centrosymmetric(Permutation((1, 2)))
    assert not is_centrosymmetric(Permutation((1, 3, 2)))
    assert is_centrosymmetric(Permutation((5, 2, 7, 4, 1, 6, 3)))


def test_costas_centrosymmetric():
    assert is_costas_centrosymmetric(Permutation((2, 3, 5, 8, 1, 4, 6, 7)))
    assert is_costas_centrosymmetric(Permutation((2, 4, 3, 1, 8, 6, 5, 7)))
    assert not is_costas_centrosymmetric(Permutation((1, 3, 2)))  # not centrosymmetric
    # mirror-forced repeats are tolerated, so the identity qualifies at order 3
    assert is_costas_centrosymmetric(Permutation((1, 2, 3)))
    # at order 4 the identity's unforced repeat in row 1 disqualifies it
    assert not is_costas_centrosymmetric(Permutation((1, 2, 3, 4)))


@pytest.mark.parametrize("n", range(1, 8))
def test_costas_centrosymmetric_implies_centrosymmetric(n):
    for p in all_perms(n):
        if is_costas_centrosymmetric(p):
            assert is_centrosymmetric(p)


def naive_costas_centrosymmetric(entries):
    """Independent oracle: repeats allowed only between mirror-partner index pairs.

    The mirror of the gap-k pair starting at i (1-based) is the pair starting
    at n+1-k-i; centrosymmetry forces those two differences equal, and no
    other equality is tolerated.
    """
    n = len(entries)
    if any(entries[k] + entries[n - 1 - k] != n + 1 for k in range(n)):
        return False
    for k in range(1, n):
        diffs = [entries[i + k] - entries[i] for i in range(n - k)]
        for i in range(len(diffs)):
            for j in range(i + 1, len(diffs)):
                if diffs[i] == diffs[j] and j + 1 != n + 1 - k - (i + 1):
                    return False
    return True


def centrosymmetric_perms(n):
    """The 2^(n//2) (n//2)! centrosymmetric permutations of order n: entry i
    takes one value of a pair {v, n+1-v}, and entry n+1-i the other."""
    h = n // 2
    middle = ((n + 1) // 2,) * (n % 2)
    for order in itertools.permutations(range(1, h + 1)):
        for flips in itertools.product((False, True), repeat=h):
            first = tuple(n + 1 - v if flip else v for v, flip in zip(order, flips))
            yield Permutation(first + middle + tuple(n + 1 - v for v in reversed(first)))


@pytest.mark.parametrize("n", range(1, 13))
def test_costas_centrosymmetric_matches_mirror_orbit_oracle(n):
    # past order 8 only the centrosymmetric permutations: both sides reject the rest
    for p in all_perms(n) if n <= 8 else centrosymmetric_perms(n):
        assert is_costas_centrosymmetric(p) == naive_costas_centrosymmetric(p.entries), p


def test_reverse_second_half():
    order16 = Permutation((1, 3, 9, 10, 13, 5, 15, 11, 16, 14, 8, 7, 4, 12, 2, 6))
    assert is_costas(order16)
    flipped = reverse_second_half(order16)
    assert flipped == Permutation((1, 3, 9, 10, 13, 5, 15, 11, 6, 2, 12, 4, 7, 8, 14, 16))
    assert is_costas_centrosymmetric(flipped)
    assert reverse_second_half(Permutation((1, 2, 3, 4))) == Permutation((1, 2, 4, 3))
    assert reverse_second_half(Permutation((2, 4, 3, 1, 8, 6, 5, 7))) == Permutation(
        (2, 4, 3, 1, 7, 5, 6, 8)
    )
    assert not is_costas(Permutation((2, 4, 3, 1, 7, 5, 6, 8)))
    with pytest.raises(ValueError):
        reverse_second_half(Permutation((1, 2, 3)))


def test_signed_permutation_type():
    SignedPermutation((2, 4, -1, -3))
    with pytest.raises(ValueError):
        SignedPermutation((2, 2, -1))  # |entries| not a permutation
    with pytest.raises(ValueError):
        SignedPermutation((0, 1))


def test_costas_signed():
    assert is_costas_signed(SignedPermutation((2, 4, -1, -3)))
    assert is_costas_signed(SignedPermutation((1,)))
    assert not is_costas_signed(SignedPermutation((1, 2, 3)))
    # the triangle is taken over the signed values, not their absolute values:
    # |2,4,-1,-3| = (2,4,1,3) repeats a consecutive difference, yet the signed
    # sequence passes
    assert not naive_is_one_costas((2, 4, 1, 3))


def test_costas_subpermutation():
    assert is_costas_subpermutation((1, 8, 10, 9, 2, 7), 12)
    assert is_costas_subpermutation((5,), 12)
    assert not is_costas_subpermutation((1, 2, 3), 12)
    assert not is_costas_subpermutation((1, 13), 12)  # out of range
    assert not is_costas_subpermutation((1, 1), 12)
    assert not is_costas_subpermutation((1.5, 2), 3)  # not an integer
    assert not is_costas_subpermutation((1.0, 2), 3)


def test_costas_half():
    assert is_costas_half((1, 8, 10, 9, 2, 7), 6)
    assert not is_costas_half((1, 4), 2)  # both values from the pair {1,4}
    assert is_costas_half((1,), 1)
    assert not is_costas_half((1, 8, 10, 9, 2), 6)  # wrong length
    assert not is_costas_half((1.0,), 1)  # not an integer


def test_costas_half_requires_one_value_per_pair():
    # pairs for m=3 are {1,6}, {2,5}, {3,4}
    assert is_costas_half((2, 6, 3), 3) == is_costas_subpermutation((2, 6, 3), 6)
    assert not is_costas_half((1, 6, 3), 3)  # pair {1,6} used twice


@pytest.mark.parametrize("n", range(1, 8))
def test_gamma_reaches_full_length_when_costas_exists(n):
    m, witness = gamma(n)
    assert m == n
    assert len(witness) == m
    assert is_costas_subpermutation(witness, n)
    assert naive_is_costas(witness)


def test_gamma_small():
    assert gamma(1) == (1, (1,))
    m, witness = gamma(5)
    assert m == 5 and sorted(witness) == [1, 2, 3, 4, 5]
    with pytest.raises(ValueError):
        gamma(0)


def test_gamma_witness_is_deterministic():
    assert gamma(3) == gamma(3)
    assert gamma(3)[1] == (1, 3, 2)


def reference_gamma(n):
    """The depth-first gamma search as first written, with its own extension test."""
    best_len = 0
    best = ()

    def extension_ok(seq):
        m = len(seq)
        last = seq[-1]
        for k in range(1, m):
            d = last - seq[m - 1 - k]
            for i in range(m - 1 - k):
                if seq[i + k] - seq[i] == d:
                    return False
        return True

    def search(seq, used):
        nonlocal best_len, best
        if len(seq) > best_len:
            best_len = len(seq)
            best = tuple(seq)
            if best_len == n:
                return True
        for v in range(1, n + 1):
            bit = 1 << v
            if used & bit:
                continue
            seq.append(v)
            if extension_ok(seq) and search(seq, used | bit):
                return True
            seq.pop()
        return False

    search([], 0)
    return best_len, best


@pytest.mark.parametrize("n", range(1, 14))
def test_gamma_matches_reference_search(n):
    assert gamma(n) == reference_gamma(n)


@pytest.mark.slow
@pytest.mark.parametrize("n,witness", [
    (14, (1, 2, 5, 7, 14, 8, 12, 11, 6, 4, 13, 10, 3, 9)),
    (15, (1, 2, 6, 14, 9, 3, 15, 13, 5, 10, 12, 11, 8, 4, 7)),
])
def test_gamma_witness_is_the_first_costas_permutation_past_the_reference_range(n, witness):
    # the first Costas permutation in ascending order, from the RowsRule walk and the
    # reference search: about 1 s at order 14 and 3 s at order 15, most of it the
    # reference search
    assert naive_is_costas(witness)
    assert gamma(n) == reference_gamma(n) == (n, witness)


def reference_jedwab_witness(p):
    """The O(n^4) witness scan as first written: every ordered pair against every other."""
    points = [(i + 1, v) for i, v in enumerate(p.entries)]
    for rs in points:
        for uv in points:
            if rs == uv:
                continue
            dr = rs[0] - uv[0]
            dc = rs[1] - uv[1]
            for ab in points:
                for cd in points:
                    if (ab, cd) == (rs, uv):
                        continue
                    if ab[1] - cd[1] == dc and ab[0] - cd[0] == -dr:
                        return JedwabWitness((rs, uv), (ab, cd))
    return None


def welch(prime, root, shift):
    """The exponential Welch Costas array of order prime-1: entry i is root^(i-1+shift) mod prime."""
    return Permutation(tuple(pow(root, i + shift, prime) for i in range(prime - 1)))


def primitive_roots(prime):
    return [g for g in range(2, prime) if len({pow(g, e, prime) for e in range(1, prime)}) == prime - 1]


@pytest.mark.parametrize("n", range(1, 8))
def test_jedwab_witness_matches_reference_scan(n):
    for p in all_perms(n):
        assert jedwab_witness(p) == reference_jedwab_witness(p), p


def test_jedwab_witness_none_on_identity_50():
    # every displacement of the identity is (d, d); its mirror (-d, d) never occurs
    p = identity(50)
    assert jedwab_witness(p) is None
    assert reference_jedwab_witness(p) is None


@pytest.mark.parametrize("prime,root_index,shift", [(11, 0, 0), (13, 1, 5), (31, 2, 7), (37, -1, 20)])
def test_jedwab_witness_matches_reference_on_welch_arrays(prime, root_index, shift):
    p = welch(prime, primitive_roots(prime)[root_index], shift)
    assert is_costas(p)
    witness = jedwab_witness(p)
    assert witness is not None
    assert witness == reference_jedwab_witness(p)
