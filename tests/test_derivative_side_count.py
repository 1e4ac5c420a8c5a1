"""k-Costas counts from the derivative side, sharing no code with the search walker.

A permutation of order n is fixed by its derivative, the n-1 differences of
consecutive entries: their running sums from 0 must be n distinct integers
spanning a window of width n-1, and shifting them to start at 1 gives the
entries.  Row j of its difference triangle holds, at position i, the running
sum at i+j minus the one at i.  A k-Costas permutation is one whose rows 1..k
each hold distinct entries: one-Costas is k = 1 (distinct differences), and
Costas k = n-1.  So walking the running sums that stay distinct, inside such
a window, and keep each of those rows repeat-free counts the k-Costas
permutations, one walk each.
"""
import pytest

from permderiv import count_one_costas, search


def derivative_side_count(n, k=1, halved=False):
    """The number of sequences of n distinct running sums from 0, spanning at most
    n-1, whose rows 1..k (row j's entry at i is the sum at i+j minus the one at i)
    each hold distinct entries.

    With halved, only the sequences with a positive first difference are walked,
    and their number doubled.  Negating every difference negates every row's
    entries, so it keeps each row distinct and the sums distinct within the same
    span, and pairs each sequence with one whose first difference has the other sign.
    """
    sums, rows = [0], [set() for _ in range(k)]

    def walk(lowest, highest):
        depth = len(sums) - 1
        if depth == n - 1:
            return 1
        total = 0
        # row j with the sum j back, for j = 1..k: row j's entry ending at s is s minus that sum
        pairs = list(zip(rows, sums[:-k - 1:-1]))
        # the sums that keep the window; a halved walk's first one is positive
        for s in range(1 if halved and not depth else highest - (n - 1), lowest + n):
            if s in sums:
                continue
            for row, back in pairs:
                if s - back in row:
                    break
            else:
                for row, back in pairs:
                    row.add(s - back)
                sums.append(s)
                total += walk(min(lowest, s), max(highest, s))
                sums.pop()
                for row, back in pairs:
                    row.remove(s - back)
        return total

    return walk(0, 0) * (2 if halved and n > 1 else 1)  # order 1 has no difference to negate


def test_derivative_side_count_matches_figure1_rows():
    # the paper's Figure 1 one-Costas counts for n = 1..8
    assert [derivative_side_count(n) for n in range(1, 9)] == [1, 2, 4, 12, 44, 176, 788, 3936]


@pytest.mark.parametrize("n", range(1, 10))
def test_count_one_costas_matches_derivative_side_count(n):
    assert count_one_costas(n).count == derivative_side_count(n)


@pytest.mark.parametrize("n,k", [(n, k) for n in range(2, 10) for k in range(1, n)])
def test_k_costas_counts_match_derivative_side_count(n, k):
    assert search.matches(f"k-costas={k}", n) == derivative_side_count(n, k, halved=True)


@pytest.mark.parametrize("n", range(1, 10))
def test_halved_derivative_side_count_equals_the_whole_walk(n):
    for k in {1, max(1, n - 1)}:
        assert derivative_side_count(n, k, halved=True) == derivative_side_count(n, k)


@pytest.mark.slow
@pytest.mark.parametrize("k", range(1, 11))
def test_order_11_k_costas_counts_from_both_sides(k):
    # past the oracles' reach: 1,104,876 (about 9 s halved), 63,168, 10,936 and 4,872 for
    # K = 1..4, then the Costas count (about 2.5 s each)
    expected = {1: 1104876, 2: 63168, 3: 10936, 4: 4872}.get(k, 4368)
    assert derivative_side_count(11, k, halved=True) == search.matches(f"k-costas={k}", 11) == expected


@pytest.mark.slow
@pytest.mark.parametrize("k", range(1, 10))
def test_order_10_k_costas_counts_from_both_sides(k):
    # past the oracles' reach: 152,112, 12,756 and 3,368 for K = 1..3, then the Costas count
    expected = {1: 152112, 2: 12756, 3: 3368}.get(k, 2160)
    assert derivative_side_count(10, k, halved=True) == search.matches(f"k-costas={k}", 10) == expected
