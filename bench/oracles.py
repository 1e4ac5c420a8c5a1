"""Answers computed apart from permderiv, for checking its outputs.

Nothing here imports permderiv.  Each function works from the definition
(exhaustive n!-filters, displacement vectors, closed forms proved in the
paper) or from a published table, never from a stored copy of the
program's own output.
"""
from __future__ import annotations

import itertools
import operator
from functools import lru_cache

# Costas arrays of order n, rotations and flips counted as distinct: OEIS
# A008404 (Drakakis, "A review of Costas arrays", J. Applied Mathematics 2006).
COSTAS_COUNTS = {1: 1, 2: 2, 3: 4, 4: 12, 5: 40, 6: 116, 7: 200, 8: 444, 9: 760, 10: 2160, 11: 4368, 12: 7852}

# Distinct-derivative (1-Costas) permutations beyond exhaustive reach of a
# pure-Python n!-filter: the paper's Figure 1.
ONE_COSTAS_FIGURE1 = {9: 23264, 10: 152112}

# Orders whose exhaustive filter is cheap enough to run inside a benchmark.
BRUTE_MAX = 8


def parse(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(",")) if text else ()


def diffs(seq) -> tuple[int, ...]:
    return tuple(map(operator.sub, seq[1:], seq[:-1]))


def row(seq, k: int) -> tuple[int, ...]:
    """Row k of the difference triangle: seq[i+k] - seq[i]; row 0 is seq."""
    return tuple(seq) if k == 0 else tuple(map(operator.sub, seq[k:], seq[:-k]))


def rows_distinct(seq, k: int) -> bool:
    """Rows 1..k of the difference triangle of seq are each repeat-free."""
    m = len(seq)
    for order in range(1, min(k, m - 1) + 1):
        row = [seq[i + order] - seq[i] for i in range(m - order)]
        if len(set(row)) != len(row):
            return False
    return True


def is_costas(seq) -> bool:
    """No two points of the matrix share a displacement vector."""
    seen = set()
    m = len(seq)
    for i in range(m):
        for j in range(i + 1, m):
            vector = (j - i, seq[j] - seq[i])
            if vector in seen:
                return False
            seen.add(vector)
    return True


def is_one_costas(seq) -> bool:
    d = diffs(seq)
    return len(set(d)) == len(d)


def is_convex(seq) -> bool:
    d = diffs(seq)
    return all(a <= b for a, b in zip(d, d[1:]))


def is_permutation(seq) -> bool:
    n = len(seq)
    return n >= 1 and set(seq) == set(range(1, n + 1))


def is_centrosymmetric(seq) -> bool:
    n = len(seq)
    return all(seq[i] + seq[n - 1 - i] == n + 1 for i in range(n))


def is_costas_centrosymmetric(seq) -> bool:
    """Centrosymmetric, and repeat-free on one index pair (i, j) per mirror pair.

    The mirror of (i, j) is (n+1-j, n+1-i); the pair with i + j <= n+1 is
    its representative (1-based).
    """
    if not is_centrosymmetric(seq):
        return False
    n = len(seq)
    for k in range(1, n):
        row = [seq[i + k - 1] - seq[i - 1] for i in range(1, n - k + 1) if 2 * i + k <= n + 1]
        if len(set(row)) != len(row):
            return False
    return True


def is_mid_alternating(seq) -> bool:
    n = len(seq)
    k = n // 2
    low = set(range(1, k + 1 + n % 2))
    high = set(range(k + 1, n + 1))
    return all((a in low and b in high) or (a in high and b in low) for a, b in zip(seq, seq[1:]))


def integrate(z) -> tuple[int, ...] | None:
    """The permutation with derivative z, or None if there is none."""
    values = list(itertools.accumulate(z, initial=0))
    shift = 1 - min(values)
    out = tuple(v + shift for v in values)
    return out if is_permutation(out) else None


def inverse(seq) -> tuple[int, ...]:
    inv = [0] * len(seq)
    for i, v in enumerate(seq, 1):
        inv[v - 1] = i
    return tuple(inv)


def rotate90(seq) -> tuple[int, ...]:
    """Point (i, j) moves to (n+1-j, i): the reverse of the inverse."""
    return inverse(seq)[::-1]


def zigzag(n: int) -> tuple[int, ...]:
    """The permutation of order n whose derivative is (1, -2, 3, ...)."""
    out = integrate([(-1) ** i * (i + 1) for i in range(n - 1)])
    assert out is not None
    return out


def convex_family(n: int) -> frozenset[tuple[int, ...]]:
    """The four convex families and their reversals (the paper's classification)."""
    members = {
        tuple(range(1, n + 1)),
        (n,) + tuple(range(1, n)),
        rotate90(zigzag(n)),
    }
    if n >= 2:
        members.add((n - 1,) + tuple(range(1, n - 1)) + (n,))
    return frozenset(m for p in members if is_permutation(p) for m in (p, p[::-1]))


def mirrored_pair_exists(seq) -> bool:
    """True iff two point pairs have displacements (dr, dc) and (-dr, dc)."""
    points = list(enumerate(seq, 1))
    vectors = {(r - u, s - v) for r, s in points for u, v in points if r != u}
    return any((-dr, dc) in vectors for dr, dc in vectors)


def is_jedwab_witness(seq, witness) -> bool:
    """The witness's points lie on the matrix and its displacements mirror."""
    points = set(enumerate(seq, 1))
    ((r, s), (u, v)), ((a, b), (c, d)) = witness.first, witness.second
    return (
        {(r, s), (u, v), (a, b), (c, d)} <= points
        and (r, s) != (u, v)
        and ((r, s), (u, v)) != ((a, b), (c, d))
        and b - d == s - v
        and a - c == -(r - u)
    )


def fraction(count: int, total: int) -> float:
    """count/total as a percentage, rounded half up to one decimal."""
    return ((2000 * count + total) // (2 * total)) / 10


def primitive_roots(p: int) -> list[int]:
    """Primitive roots of the prime p."""
    order = p - 1
    factors = {q for q in range(2, order + 1) if order % q == 0 and all(q % r for r in range(2, int(q**0.5) + 1))}
    return [g for g in range(2, p) if all(pow(g, order // q, p) != 1 for q in factors)]


def welch(p: int, g: int, shift: int) -> tuple[int, ...]:
    """The exponential Welch Costas array of order p-1 (Welch's theorem)."""
    return tuple(pow(g, i + shift, p) for i in range(p - 1))


def permutations(n: int):
    """All permutations of order n in lexicographic order (n <= BRUTE_MAX).

    A generator: holding all 8! tuples would add megabytes to the workload's
    peak memory, which is meant to show the program's.
    """
    if not 1 <= n <= BRUTE_MAX:
        raise ValueError(f"exhaustive filter limited to orders 1..{BRUTE_MAX}, got {n}")
    return itertools.permutations(range(1, n + 1))


@lru_cache(maxsize=None)
def one_costas(n: int) -> tuple[tuple[int, ...], ...]:
    return tuple(p for p in permutations(n) if is_one_costas(p))


@lru_cache(maxsize=None)
def filtered(name: str, n: int) -> tuple[tuple[int, ...], ...]:
    """The lexicographic n!-filter for a searchable property name."""
    if name == "one-costas":
        return one_costas(n)
    if name == "costas":
        return tuple(p for p in one_costas(n) if is_costas(p))
    if name == "convex":
        return tuple(p for p in permutations(n) if is_convex(p))
    if name.startswith("k-costas="):
        k = int(name.partition("=")[2])
        base = permutations(n) if k == 0 else one_costas(n)
        return tuple(p for p in base if rows_distinct(p, k))
    raise ValueError(f"no filter for {name!r}")


def best(candidates, objective, direction: str):
    """First candidate (in the given order) with the best objective value."""
    better = operator.gt if direction == "max" else operator.lt
    out = None
    for p in candidates:
        value = objective(p)
        if out is None or better(value, out[0]):
            out = (value, p)
    return out
