"""One-Costas counts from the derivative side, sharing no code with the search walker.

A permutation of order n is fixed by its derivative, the n-1 differences of
consecutive entries: their running sums from 0 must be n distinct integers
spanning a window of width n-1, and shifting them to start at 1 gives the
entries.  A one-Costas permutation is one whose differences are distinct.
So walking distinct nonzero differences whose running sums stay distinct and
inside such a window counts the one-Costas permutations, one walk each.
"""
import pytest

from permderiv import count_one_costas


def derivative_side_count(n):
    """The number of sequences of n-1 distinct nonzero differences whose running
    sums from 0 are distinct and span at most n-1."""
    differences, sums = set(), {0}

    def walk(depth, last, lowest, highest):
        if depth == n - 1:
            return 1
        total = 0
        for s in range(highest - (n - 1), lowest + n):  # the sums that keep the window
            d = s - last  # nonzero, since s differs from every earlier sum
            if s in sums or d in differences:
                continue
            differences.add(d)
            sums.add(s)
            total += walk(depth + 1, s, min(lowest, s), max(highest, s))
            differences.remove(d)
            sums.remove(s)
        return total

    return walk(0, 0, 0, 0)


def test_derivative_side_count_matches_figure1_rows():
    # the paper's Figure 1 one-Costas counts for n = 1..8
    assert [derivative_side_count(n) for n in range(1, 9)] == [1, 2, 4, 12, 44, 176, 788, 3936]


@pytest.mark.parametrize("n", range(1, 10))
def test_count_one_costas_matches_derivative_side_count(n):
    assert count_one_costas(n).count == derivative_side_count(n)
