"""Counts under the Costas-type rules weigh each match by its last entry.

The premise, checked on the n!-filter alone: reverse and complement keep
every row of the difference triangle repeat-free or not, so the matches of
one-costas, costas and each k-costas=K are closed under both, and for n >= 2
their number is 4A + 2B, where A counts the matches with
p1 < pn < n+1-p1 and B those with pn = n+1-p1 > p1.  Then each task's
weighed count must be the filter's weighed sum over the task's prefix.
"""
import collections
import functools
import itertools

import pytest

from permderiv import search


def repeat_free_rows(t):
    """How many rows of t's difference triangle, from row 1, have no repeated difference."""
    for k in range(1, len(t)):
        row = [t[i + k] - t[i] for i in range(len(t) - k)]
        if len(set(row)) != len(row):
            return k - 1
    return len(t) - 1


def rules(n):
    """Each Costas-type rule as (name, k, RowsRule): one-costas, costas and k-costas=K for K = -1..n-1."""
    yield "one-costas", 1, search.RowsRule(1)
    yield "costas", None, search.RowsRule()
    for k in range(-1, n):
        yield f"k-costas={k}", k, search.RowsRule(k)


@functools.cache
def judged(n):
    """Each order-n permutation with its repeat_free_rows, shared by the tests."""
    return [(t, repeat_free_rows(t)) for t in itertools.permutations(range(1, n + 1))]


def filtered(n, k):
    """The order-n matches of rows 1..k repeat-free (every row when k is None), by the n!-filter."""
    need = n - 1 if k is None else min(max(k, 0), n - 1)
    return [t for t, rows in judged(n) if rows >= need]


def weight(t):
    """What a match counts for in the task of its first value: 4, 2 or 0 by its last value."""
    n, first, last = len(t), t[0], t[-1]
    return 4 if first < last < n + 1 - first else 2 if first < last == n + 1 - first else 0


@pytest.mark.parametrize("n", range(2, 9))
def test_matches_are_closed_under_reverse_and_complement(n):
    for name, k, _ in rules(n):
        matches = set(filtered(n, k))
        assert {t[::-1] for t in matches} == matches, name
        assert {tuple(n + 1 - v for v in t) for t in matches} == matches, name
        a = sum(1 for t in matches if t[0] < t[-1] < n + 1 - t[0])
        b = sum(1 for t in matches if t[0] < t[-1] == n + 1 - t[0])
        assert len(matches) == 4 * a + 2 * b, name


@pytest.mark.parametrize("n", range(1, 9))
def test_each_task_counts_the_filters_weighed_sum(n):
    # a task that is a whole permutation (depth n) counts 1, unweighed:
    # it is order 1's one task, and the weights need n >= 2
    for name, k, rule in rules(n):
        matches = filtered(n, k)
        for depth in range(1, n + 1):
            expected = collections.Counter()
            for t in matches:
                expected[t[:depth]] += 1 if depth == n else weight(t)
            for prefix, state in search._frontier(rule, n, depth):
                assert search._count_rows(rule, n, prefix, state) == expected[prefix], (name, prefix)
