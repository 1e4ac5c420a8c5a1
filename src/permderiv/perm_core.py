"""Permutations of {1..n} and their discrete derivatives.

A permutation is stored as a tuple of 1-based entries; the matrix view (a 1
in position (i, pi_i), zeros elsewhere) is derived on demand.  Differencing
is invertible: ``integrate`` recovers the unique permutation from a
difference sequence, and ``is_realizable`` decides which integer sequences
arise this way — exactly those whose running sums, together with 0, form a
set of n consecutive integers.

Validate once, at the boundary.  ``Permutation(...)`` and ``Derivative(...)``
check every entry, so data entering the library is checked.  Inside this
module a result that is a permutation (or a derivative) by construction
from an already-checked object is wrapped unchecked, through the private
``Permutation._of`` / ``Derivative._of``, instead of being checked again:

- ``reverse``: the same entries in another order;
- ``complement``: v -> n+1-v maps {1..n} onto itself one-to-one;
- ``inverse``: position i goes to slot p[i], and the p[i] are exactly 1..n,
  so every slot of 1..n is filled once;
- ``rotate90``: ``reverse`` of ``inverse``;
- ``derivative``: consecutive entries of a permutation are distinct
  integers of 1..n, so each difference is a nonzero integer of magnitude
  at most n-1;
- ``integrate``: only after its own checks, that the order n (one more than
  the input's length) is at most MAX_ORDER, as the constructor requires,
  that every input is an ``int``, and that the running sums are n distinct
  integers spanning n-1 (``_least_if_consecutive``); the shift puts the least
  at 1, so they are exactly {1..n}.

Each construction checks its inputs and is then a permutation by proof,
which the tests check at every order up to 300 and next to MAX_ORDER:

- ``identity``, ``anti_identity``: ``range(1, n+1)``, forwards or backwards;
- ``realize_shift``: s+1, then 1..s, then s+2..n;
- ``construct_max_global``: k = n//2, then k+2..n interleaved with 1..k-1, then k+1;
- ``pi_perm``: s = (k+1)//2, then s+1..k interleaved with s-1..1;
- ``construct_min_local_1costas``: ``pi_perm`` blocks of orders k and n-k sent onto 1..k and
  k+1..n by v -> c+v or v -> c-v;
- ``construct_maximin_abs``: 1 if n is odd, then the high and low halves of the other values
  interleaved;
- ``construct_dpair``: 2..b+1 then 1, or 1 + (i*a mod a+b), one-to-one as gcd(a, a+b) = 1;
- ``costas.reverse_second_half``: the same entries in another order;
- ``search.enumerate``'s collect results and optimize witness: the walker emits n distinct
  values of 1..n, and under a ``RowsRule`` a collect adds their complements, one-to-one as in
  ``complement``.

These are built by proof too; their tests compare them with oracles at small orders:

- ``from_tree``: its propagated values pass ``integrate``'s running-sum test, then ``check_order(n)``;
- ``convexity.enumerate_convex``, ``convexity.algorithm1``: a grown fill sets each row of 1..n
  once, and a ``PartialColumnFill`` with k = n holds n distinct rows of 1..n;
- ``convexity.classify_convex``: the family members that sort to 1..n.

Everything else that builds a permutation goes through the checking constructor.
"""
from __future__ import annotations

import re
import reprlib
import sys
from dataclasses import dataclass
from itertools import accumulate, islice, repeat
from operator import add, sub
from typing import Iterable, Iterator

MAX_ORDER = 10**6
MAX_MATRIX_ORDER = 64


class NotRealizable(ValueError):
    """The sequence is not the derivative of any permutation."""


class InvalidTree(ValueError):
    """The edge list is not a spanning tree on {1..n}."""


class InconsistentTree(ValueError):
    """Propagated tree weights do not shift onto {1..n}."""


def parse_int_sequence(text: str) -> tuple[int, ...]:
    """Parse a comma-separated integer sequence; the empty string is ()."""
    text = text.strip()
    if not text:
        return ()
    values = []
    for i, tok in enumerate(text.split(","), 1):
        try:
            values.append(int(tok))
        except ValueError:
            if _too_long(tok):
                raise ValueError(f"integer out of range: token {i} {_too_long(tok)}") from None
            raise ValueError(f"not a comma-separated integer sequence: token {i} is {reprlib.repr(tok)}") from None
    return tuple(values)


def _too_long(token: str) -> str:
    """'has N digits, more than M' when token is an integer that int() refuses for
    having more than sys.get_int_max_str_digits() digits, else ''."""
    digits = re.fullmatch(r"\s*[+-]?(\d+)\s*", token)
    return f"has {len(digits[1])} digits, more than {sys.get_int_max_str_digits()}" if digits else ""


def format_int_sequence(values: Iterable[int]) -> str:
    return ",".join(str(v) for v in values)


def check_order(n: int, minimum: int = 1) -> None:
    """Raise ValueError unless minimum <= n <= MAX_ORDER."""
    if not isinstance(n, int) or not minimum <= n <= MAX_ORDER:
        raise ValueError(f"order must be between {minimum} and {MAX_ORDER}, got {n}")


class _IntSequence:
    """What Permutation and Derivative share: one tuple field, named by _FIELD, and its text form."""

    _FIELD: str

    @classmethod
    def _of(cls, values: tuple[int, ...]):
        """Wrap a tuple that is valid by construction, unchecked."""
        obj = object.__new__(cls)
        object.__setattr__(obj, cls._FIELD, values)
        return obj

    @classmethod
    def from_string(cls, text: str):
        return cls(parse_int_sequence(text))

    def __str__(self) -> str:
        return format_int_sequence(getattr(self, self._FIELD))

    def __len__(self) -> int:
        return len(getattr(self, self._FIELD))

    def __iter__(self) -> Iterator[int]:
        return iter(getattr(self, self._FIELD))

    def __getitem__(self, index):
        return getattr(self, self._FIELD)[index]


@dataclass(frozen=True)
class Permutation(_IntSequence):
    """A permutation of {1..n}, entries 1-based."""

    _FIELD = "entries"
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(self.entries))
        n = len(self.entries)
        check_order(n)
        seen = bytearray(n + 1)
        for v in self.entries:
            if not isinstance(v, int) or not 1 <= v <= n:
                raise ValueError(f"entry {v!r} outside 1..{n}")
            if seen[v]:
                raise ValueError(f"duplicate entry {v}")
            seen[v] = 1

    @property
    def n(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class Derivative(_IntSequence):
    """Consecutive differences of a permutation; length n-1 at order n."""

    _FIELD = "diffs"
    diffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "diffs", tuple(self.diffs))
        n = self.n
        for d in self.diffs:
            if not isinstance(d, int) or d == 0 or abs(d) > n - 1:
                raise ValueError(f"difference {d!r} impossible at order {n}")

    @property
    def n(self) -> int:
        return len(self.diffs) + 1


@dataclass(frozen=True)
class WeightedTree:
    """A weighted spanning tree on vertices {1..n}.

    Each edge is (i, j, w) with 1 <= i < j <= n and an integer w; the weight
    states that the permutation value at j exceeds the value at i by w.
    """

    n: int
    edges: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        n = self.n
        if not isinstance(n, int):
            raise InvalidTree(f"vertex count must be an integer, got {n!r}")
        if n < 1:
            raise InvalidTree(f"vertex count must be positive, got {n}")
        if len(self.edges) != n - 1:
            raise InvalidTree(f"a spanning tree on {n} vertices needs {n - 1} edges, got {len(self.edges)}")
        for e in self.edges:
            if len(e) != 3:
                raise InvalidTree(f"edge {e!r} is not (i, j, weight)")
            i, j, w = e
            if not (isinstance(i, int) and isinstance(j, int)):
                raise InvalidTree(f"edge {e!r} has endpoints that are not both integers")
            if not (1 <= i < j <= n):
                raise InvalidTree(f"edge endpoints ({i},{j}) must satisfy 1 <= i < j <= {n}")
            if not isinstance(w, int):
                raise InvalidTree(f"edge {e!r} has weight {w!r}, not an integer")
        # n-1 edges + connected => acyclic, so connectivity is the whole check
        if len(_values_from_1(self)) != n:
            raise InvalidTree("edges do not connect all vertices")


def _values_from_1(tree: WeightedTree) -> dict[int, int]:
    """The value of each vertex reached from vertex 1, which has value 0, along the weighted edges."""
    adjacency: list[list[tuple[int, int]]] = [[] for _ in range(tree.n + 1)]
    for i, j, w in tree.edges:
        adjacency[i].append((j, w))
        adjacency[j].append((i, -w))
    values = {1: 0}
    stack = [1]
    while stack:
        u = stack.pop()
        for v, w in adjacency[u]:
            if v not in values:
                values[v] = values[u] + w
                stack.append(v)
    return values


def derivative(p: Permutation) -> Derivative:
    """The sequence of consecutive differences; empty at order 1.

    >>> str(derivative(Permutation((5, 2, 7, 4, 1, 6, 3))))
    '-3,5,-3,-3,5,-3'
    """
    e = p.entries
    return Derivative._of(tuple(map(sub, islice(e, 1, None), e)))


def sum_characteristic(z: Iterable[int]) -> frozenset[int]:
    """{0} together with every running sum of z."""
    return frozenset(accumulate(z, initial=0))


def _all_ints(z: tuple) -> bool:
    return all(map(isinstance, z, repeat(int)))


def _distinct_within(values: tuple, n: int) -> bool:
    """True iff n is an int and values are distinct ints of 1..n: the entries of a partial permutation."""
    return isinstance(n, int) and _all_ints(values) and len(set(values)) == len(values) and all(1 <= v <= n for v in values)


def _least_if_consecutive(values: list[int]) -> int | None:
    """The least of values if they are len(values) consecutive integers, else None.

    Shifted by 1 minus that least they are exactly 1..n.  The span test runs
    first, so most sequences that fail it build no set.
    """
    n, low = len(values), min(values)
    return low if max(values) - low == n - 1 and len(set(values)) == n else None


def is_realizable(z: Iterable[int]) -> bool:
    """True iff z is the derivative of some permutation.

    Holds exactly when every entry is an integer and the running-sum set is
    len(z)+1 consecutive integers (0 is always a member), which is also when
    ``integrate`` succeeds at orders up to MAX_ORDER.
    """
    z = tuple(z)
    return _all_ints(z) and _least_if_consecutive(list(accumulate(z, initial=0))) is not None


def integrate(z: Iterable[int]) -> Permutation:
    """Recover the unique permutation whose derivative is z.

    Running values are anchored so the minimum maps to 1.  Raises
    NotRealizable when the input is not a permutation derivative, a
    non-integer entry included, and ValueError, as ``Permutation`` does,
    when the order len(z)+1 exceeds MAX_ORDER.

    >>> integrate((-3, 5, -3, -3, 5, -3)).entries
    (5, 2, 7, 4, 1, 6, 3)
    """
    z = tuple(z)
    n = len(z) + 1
    check_order(n)
    if not _all_ints(z):
        bad = next(x for x in z if not isinstance(x, int))
        raise NotRealizable(f"derivative entry {bad!r} is not an integer")
    values = list(accumulate(z, initial=0))
    low = _least_if_consecutive(values)
    if low is None:
        seen: set[int] = set()  # find the first entry j whose running sum repeats or spans too far
        for j, (v, lo, hi) in enumerate(zip(values, accumulate(values, min), accumulate(values, max))):
            if v in seen or hi - lo >= n:
                break
            seen.add(v)
        raise NotRealizable(f"not the derivative of a permutation of order {n}: "
                            f"at entry {j} the running sums repeat or span more than {n} integers")
    return Permutation._of(tuple(map(add, values, repeat(1 - low))))


def realize_shift(n: int, s: int) -> Permutation:
    """The permutation (s+1, 1, 2, ..., s, s+2, ..., n).

    Its sum-characteristic is {-s, ..., n-s-1}; varying s over 0..n-1 hits
    every set of n consecutive integers containing 0.
    """
    check_order(n)
    if not isinstance(s, int) or not 0 <= s <= n - 1:
        raise ValueError(f"shift must be between 0 and {n - 1}, got {s}")
    return Permutation._of((s + 1, *range(1, s + 1), *range(s + 2, n + 1)))


def from_tree(tree: WeightedTree) -> Permutation:
    """Rebuild the unique permutation consistent with a weighted spanning tree.

    Weights are propagated from vertex 1, then shifted so the values are
    exactly {1..n}.  Raises InconsistentTree when no such shift exists, and
    ValueError, as ``Permutation`` does, when n exceeds MAX_ORDER.
    """
    n = tree.n
    values = _values_from_1(tree)
    entries = [values[v] for v in range(1, n + 1)]
    low = _least_if_consecutive(entries)
    if low is None:
        raise InconsistentTree("tree weights do not shift onto {1..%d}" % n)
    check_order(n)
    return Permutation._of(tuple(map(add, entries, repeat(1 - low))))


def identity(n: int) -> Permutation:
    check_order(n)
    return Permutation._of(tuple(range(1, n + 1)))


def anti_identity(n: int) -> Permutation:
    check_order(n)
    return Permutation._of(tuple(range(n, 0, -1)))


def reverse(p: Permutation) -> Permutation:
    """Reverse the entry order (matrix rows flipped top-to-bottom)."""
    return Permutation._of(p.entries[::-1])


def complement(p: Permutation) -> Permutation:
    """Replace each entry v by n+1-v (matrix columns flipped); negates the derivative."""
    n = p.n
    return Permutation._of(tuple(map(sub, repeat(n + 1, n), p.entries)))


def inverse(p: Permutation) -> Permutation:
    """The inverse permutation (matrix transpose)."""
    inv = [0] * p.n
    for i, v in enumerate(p.entries):
        inv[v - 1] = i + 1
    return Permutation._of(tuple(inv))


def rotate90(p: Permutation) -> Permutation:
    """Rotate the matrix view 90 degrees counter-clockwise.

    Position (i, j) moves to (n+1-j, i), so the result is the reverse of the
    inverse.  With reverse, complement and inverse this generates the full
    dihedral symmetry group of the square.
    """
    return reverse(inverse(p))


def matrix(p: Permutation) -> tuple[tuple[int, ...], ...]:
    """The 0/1 matrix view, row i holding a 1 in column p[i].  Small orders only."""
    n = p.n
    if n > MAX_MATRIX_ORDER:
        raise ValueError(f"matrix view limited to order {MAX_MATRIX_ORDER}, got {n}")
    rows = []
    for v in p.entries:
        row = [0] * n
        row[v - 1] = 1
        rows.append(tuple(row))
    return tuple(rows)


def descent_count(p: Permutation) -> int:
    """Number of positions where the next entry is smaller."""
    e = p.entries
    return sum(1 for i in range(len(e) - 1) if e[i + 1] < e[i])


def is_grassmannian(p: Permutation) -> bool:
    """True iff there is exactly one descent (one negative derivative entry)."""
    return descent_count(p) == 1
