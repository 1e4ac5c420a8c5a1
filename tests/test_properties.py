"""Property tests for the value layer on random permutations up to order 10^4.

The transforms and ``integrate`` wrap their results without re-checking
them; these tests show every such result still passes the checking
constructor, and that the dihedral identities and the realizability
criterion hold well beyond the exhaustive orders of test_perm_core.py.
"""
import random

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from permderiv import triangle  # noqa: E402
from permderiv import (  # noqa: E402
    Derivative,
    NotRealizable,
    Permutation,
    WeightedTree,
    complement,
    derivative,
    from_tree,
    global_variation,
    integrate,
    inverse,
    is_realizable,
    local_variation,
    reverse,
    rotate90,
    sum_characteristic,
)

MAX_N = 10**4

# Fixed examples (derandomize) so a run repeats; no example database on disk.
property_test = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def permutations(draw, max_n=MAX_N):
    n = draw(st.integers(1, max_n))
    entries = list(range(1, n + 1))
    random.Random(draw(st.integers(0, 2**32 - 1))).shuffle(entries)
    return Permutation(tuple(entries))


def _fully_valid(p):
    return type(p) is Permutation and type(p.entries) is tuple and p == Permutation(p.entries)


@property_test
@given(permutations())
def test_transform_results_pass_full_validation(p):
    for f in (reverse, complement, inverse, rotate90):
        assert _fully_valid(f(p)), f.__name__
    assert _fully_valid(integrate(derivative(p)))


@property_test
@given(permutations())
def test_derivative_passes_full_validation(p):
    d = derivative(p)
    assert type(d.diffs) is tuple
    assert d == Derivative(d.diffs)
    assert len(d) == p.n - 1


@property_test
@given(permutations())
def test_integrate_inverts_derivative(p):
    assert integrate(derivative(p)) == p
    assert integrate(derivative(p).diffs) == p


@property_test
@given(permutations())
def test_dihedral_identities(p):
    q = p
    for _ in range(4):
        q = rotate90(q)
    assert q == p
    assert inverse(inverse(p)) == p
    assert reverse(reverse(p)) == p
    assert complement(complement(p)) == p
    assert rotate90(p) == reverse(inverse(p))
    assert derivative(complement(p)).diffs == tuple(-x for x in derivative(p).diffs)


@property_test
@given(permutations())
def test_value_kernels_match_loop_references(p):
    e = p.entries
    d = tuple(e[i + 1] - e[i] for i in range(len(e) - 1))
    assert derivative(p).diffs == d
    sums, total = {0}, 0
    for x in d:
        total += x
        sums.add(total)
    assert sum_characteristic(d) == sums
    if p.n > 1:
        assert local_variation(p) == max(abs(x) for x in d)
        assert global_variation(p) == sum(abs(x) for x in d)


@property_test
@given(permutations(max_n=80), st.integers(-100, 100))
def test_triangle_kernels_match_loop_references(p, offset):
    base = tuple(v + offset for v in p.entries)
    m = len(base)
    rows = (base,) + tuple(tuple(base[i + k] - base[i] for i in range(m - k)) for k in range(1, m))
    t = triangle.build(base)
    assert t.rows == rows
    assert triangle.render(t) == "\n".join(" ".join(str(x) for x in r) for r in rows)


@property_test
@given(permutations(), st.integers(0, 2**32 - 1))
def test_from_tree_recovers_permutation_from_random_spanning_tree(p, seed):
    rng = random.Random(seed)
    edges = []
    for v in range(2, p.n + 1):
        u = rng.randrange(1, v)  # a random earlier vertex: a random recursive tree
        edges.append((u, v, p[v - 1] - p[u - 1]))
    rng.shuffle(edges)
    assert from_tree(WeightedTree(p.n, tuple(edges))) == p


@st.composite
def difference_sequences(draw):
    """A permutation's derivative, left whole or corrupted in one of several ways."""
    z = list(derivative(draw(permutations())).diffs)
    kind = draw(st.sampled_from(["whole", "negate", "nudge", "replace", "append", "drop", "non-int"]))
    if kind == "append" or (kind != "whole" and not z):
        z.append(draw(st.integers(-3, 3)))
    elif kind != "whole":
        i = draw(st.integers(0, len(z) - 1))
        if kind == "negate":
            z[i] = -z[i]
        elif kind == "nudge":
            z[i] += draw(st.integers(-2, 2))
        elif kind == "replace":
            z[i] = draw(st.integers(-len(z) - 2, len(z) + 2))
        elif kind == "drop":
            del z[i]
        else:
            z[i] = draw(st.sampled_from([float(z[i]), str(z[i]), None]))
    return tuple(z)


@property_test
@given(difference_sequences())
def test_is_realizable_agrees_with_integrate(z):
    try:
        p = integrate(z)
    except NotRealizable:
        assert not is_realizable(z)
    else:
        assert is_realizable(z)
        assert _fully_valid(p)
        assert derivative(p).diffs == z
