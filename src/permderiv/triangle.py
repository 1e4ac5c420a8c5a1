"""Difference triangles of distinct-integer sequences.

Row 0 is the base sequence; row k holds the k-th order differences
a[i+k] - a[i].  Every row-k entry is the sum of the k consecutive row-1
entries beneath it, which is what distinguishes this triangle from the
classical difference table (whose rows difference each other instead).
The base may be any distinct integers: permutations, signed permutations,
subpermutations and half-permutations all share this one triangle.
"""
from __future__ import annotations

import reprlib
from dataclasses import dataclass
from operator import sub
from typing import Iterable, Sequence


MAX_TRIANGLE_ORDER = 4096  # m(m-1)/2 differences are stored: 0.8 s and about 290 MB at the cap, CPython 3.11


class DuplicateValues(ValueError):
    """The base sequence repeats a value."""


@dataclass(frozen=True)
class DifferenceTriangle:
    rows: tuple[tuple[int, ...], ...]

    @property
    def base(self) -> tuple[int, ...]:
        return self.rows[0]

    @property
    def m(self) -> int:
        return len(self.rows)


def build(values: Iterable[int]) -> DifferenceTriangle:
    """Build the triangle of all k-th order differences, k = 0..m-1; m is at most MAX_TRIANGLE_ORDER."""
    base = tuple(values)
    if not base:
        raise ValueError("base sequence must be nonempty")
    if len(set(base)) != len(base):
        first_at: dict[int, int] = {}
        for i, v in enumerate(base, 1):
            if first_at.setdefault(v, i) != i:
                raise DuplicateValues(f"base sequence repeats {reprlib.repr(v)} at positions {first_at[v]} and {i}")
    if len(base) > MAX_TRIANGLE_ORDER:
        raise ValueError(f"difference triangle limited to order {MAX_TRIANGLE_ORDER}, got {len(base)}")
    rows = [base]
    rows.extend(tuple(map(sub, base[k:], base)) for k in range(1, len(base)))
    return DifferenceTriangle(tuple(rows))


def row(t: DifferenceTriangle, k: int) -> tuple[int, ...]:
    """Row k of the triangle; row 0 is the base.  ValueError unless k is an int in 0..m-1."""
    if not isinstance(k, int) or not 0 <= k <= t.m - 1:
        raise ValueError(f"row index must be between 0 and {t.m - 1}, got {k}")
    return t.rows[k]


def row_has_repeat(t: DifferenceTriangle, k: int) -> bool:
    r = row(t, k)
    return len(set(r)) != len(r)


def distinct_through(t: DifferenceTriangle, k: int) -> bool:
    """True iff rows 0..k are each repeat-free."""
    row(t, k)  # the index check
    return all(not row_has_repeat(t, i) for i in range(k + 1))


def distinct_rows(values: Sequence[int], k: int) -> bool:
    """True iff rows 1..k of the triangle of values are each repeat-free.

    Rows past the last one are ignored.  No triangle is built: each row is
    formed, tested and dropped in turn, stopping at the first repeat.
    """
    m = len(values)
    return all(len(set(map(sub, values[j:], values))) == m - j for j in range(1, min(k, m - 1) + 1))


def render(t: DifferenceTriangle, mode: str = "plain") -> str:
    """Render as text: one row per line ("plain") or the diamond layout ("staggered").

    Staggered layout right-aligns entries in fields of width max-entry-width
    plus one; row k entry i sits at field position k + 2i.
    """
    if mode == "plain":
        # repr is str for ints; map(repr) runs in C, where map(str) measured slower
        return "\n".join(" ".join(map(repr, r)) for r in t.rows)
    if mode == "staggered":
        width = max(len(str(x)) for r in t.rows for x in r) + 1
        m = t.m
        lines = []
        for k, r in enumerate(t.rows):
            fields = [" " * width] * (2 * m - 1)
            for i, x in enumerate(r):
                fields[k + 2 * i] = str(x).rjust(width)
            lines.append("".join(fields).rstrip())
        return "\n".join(lines)
    raise ValueError(f"unknown render mode {mode!r}")


def to_json_dict(t: DifferenceTriangle) -> dict:
    """The wire form: {"base": [...], "rows": [[...], ...]}."""
    return {"base": list(t.base), "rows": [list(r) for r in t.rows]}
