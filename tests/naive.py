"""The suite's naive references: every answer found by filtering all candidates or by a
plain search written apart from the program, sharing none of its code but Permutation.

One count, the rows of the difference triangle from row 1 that repeat no
difference, answers one-Costas (rows 1..1), k-Costas K (rows 1..K) and Costas
(every row).  It gives the paper's Figure 1 count of distinct-derivative
permutations at order 8 and the Costas count of OEIS A008404:

>>> len(filtered(8, 1)), len(filtered(8, None))
(3936, 444)

tests/test_acceptance.py and bench/oracles.py keep copies of their own, so
that a fault here cannot pass through every check at once.
"""
import functools
import itertools

from permderiv import Permutation


def all_perms(n):
    """Every permutation of order n, in ascending order."""
    return (Permutation(t) for t in itertools.permutations(range(1, n + 1)))


def naive_count(n, full_predicate):
    """How many order-n permutations, as tuples, full_predicate accepts."""
    return sum(1 for t in itertools.permutations(range(1, n + 1)) if full_predicate(t))


def _rows(n, k):
    """The rows 1..k asks for at order n: all n-1 when k is None, none when k <= 0."""
    return n - 1 if k is None else max(0, min(k, n - 1))


def repeat_free_rows(t, k=None):
    """How many of rows 1..k of t's difference triangle (every row when k is None), from
    row 1 on, have no repeated difference.

    >>> repeat_free_rows((2, 4, 1, 3)), repeat_free_rows((1, 5, 2, 4, 3)), repeat_free_rows((4, 3, 1, 2))
    (0, 1, 3)
    >>> repeat_free_rows((4, 3, 1, 2), 1), repeat_free_rows((4, 3, 1, 2), -1)
    (1, 0)
    """
    last = _rows(len(t), k)
    for j in range(1, last + 1):
        row = [t[i + j] - t[i] for i in range(len(t) - j)]
        if len(set(row)) != len(row):
            return j - 1
    return last


@functools.cache
def repeat_free(k):
    """The test that rows 1..k of a sequence's difference triangle (every row when k is
    None) have no repeated difference: one-Costas is k = 1, Costas k = None.  One
    predicate per k, so a cache keyed by it is shared."""
    return lambda t: repeat_free_rows(t, k) == _rows(len(t), k)


@functools.cache
def judged(n):
    """Each order-n permutation with its repeat_free_rows, shared by the tests."""
    return [(t, repeat_free_rows(t)) for t in itertools.permutations(range(1, n + 1))]


def filtered(n, k):
    """The order-n permutations whose rows 1..k are repeat-free (every row when k is None),
    in ascending order, by the n!-filter."""
    need = _rows(n, k)
    return [t for t, rows in judged(n) if rows >= need]


def naive_is_convex(t):
    """Whether t's consecutive differences never decrease."""
    d = [t[i + 1] - t[i] for i in range(len(t) - 1)]
    return all(d[i] <= d[i + 1] for i in range(len(d) - 1))


@functools.cache
def naive_walk_calls(n, prefix_ok):
    """The prefixes a plain depth-first walk over first entries hands prefix_ok, in order
    (one list per input, shared by the tests that read it)."""
    calls = []

    def walk(prefix):
        for v in range(1, n + 1):
            if v in prefix:
                continue
            prefix.append(v)
            calls.append(tuple(prefix))
            if prefix_ok(prefix):
                walk(prefix)
            prefix.pop()

    walk([])
    return calls


def filter_first(prefix_ok, n, reach, prefix):
    """The first tail, in ascending order, of reach - len(prefix) values from 1..n outside
    prefix such that prefix_ok accepts every nonempty prefix of prefix + tail, that
    sequence, or () when there is none.  The longest prefix is asked first, as it is
    the one most often refused."""
    rest = sorted(set(range(1, n + 1)).difference(prefix))
    for tail in itertools.permutations(rest, reach - len(prefix)):
        t = prefix + tail
        if all(prefix_ok(list(t[:i])) for i in range(reach, 0, -1)):
            return t
    return ()


def naive_longest_prefix(n, prefix_ok):
    """The first, in ascending order, of the longest sequences of distinct values from 1..n
    whose every nonempty prefix prefix_ok accepts, by filtering all sequences of each length."""
    return next(filter(None, (filter_first(prefix_ok, n, length, ()) for length in range(n, 0, -1))), ())


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
