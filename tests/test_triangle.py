import random

import pytest

from permderiv import triangle
from permderiv.triangle import MAX_TRIANGLE_ORDER, DuplicateValues, build, distinct_through, render, row, row_has_repeat


EXAMPLE_ROWS = (
    (3, 5, 1, 6, 2, 4),
    (2, -4, 5, -4, 2),
    (-2, 1, 1, -2),
    (3, -3, 3),
    (-1, -1),
    (1,),
)


def test_build_worked_triangles():
    assert build((3, 5, 1, 6, 2, 4)).rows == EXAMPLE_ROWS
    assert build((4, 3, 1, 2)).rows == ((4, 3, 1, 2), (-1, -2, 1), (-3, -1), (-2,))
    assert build((7,)).rows == ((7,),)


def test_build_rejects_duplicates():
    with pytest.raises(DuplicateValues):
        build((1, 2, 1))
    with pytest.raises(ValueError):
        build(())


def test_duplicate_reason_names_the_first_repeat_and_stays_short():
    with pytest.raises(DuplicateValues) as info:
        build(tuple(range(10**5)) + (0,))
    reason = str(info.value)
    assert len(reason) < 200 and "\n" not in reason
    assert "repeats 0 at positions 1 and 100001" in reason
    with pytest.raises(DuplicateValues, match="repeats 2 at positions 2 and 4$"):
        build((1, 2, 3, 2, 1))


def test_build_rejects_orders_above_the_cap():
    # a longer base with a repeat still names the repeat (the test above)
    with pytest.raises(ValueError, match=f"^difference triangle limited to order {MAX_TRIANGLE_ORDER}, "
                                         f"got {MAX_TRIANGLE_ORDER + 1}$"):
        build(range(MAX_TRIANGLE_ORDER + 1))


def test_row_accessors():
    t = build((3, 5, 1, 6, 2, 4))
    assert row(t, 0) == (3, 5, 1, 6, 2, 4)
    assert row(t, 3) == (3, -3, 3)
    assert row(t, 5) == (1,)
    with pytest.raises(ValueError):
        row(t, 6)
    with pytest.raises(ValueError):
        row(t, -1)


def test_repeat_predicates():
    t = build((3, 5, 1, 6, 2, 4))
    assert row_has_repeat(t, 1)
    assert not row_has_repeat(t, 5)  # single entry
    assert distinct_through(t, 0)
    assert not distinct_through(t, 1)
    for k in (-1, 6):
        with pytest.raises(ValueError, match=f"row index must be between 0 and 5, got {k}"):
            distinct_through(t, k)
    clean = build((4, 3, 1, 2))
    assert all(not row_has_repeat(clean, k) for k in range(4))
    assert distinct_through(clean, 3)


@pytest.mark.parametrize("accessor", [row, row_has_repeat, distinct_through])
@pytest.mark.parametrize("k", [1.0, 0.0, "1", None])
def test_row_index_must_be_an_int(accessor, k):
    t = build((3, 5, 1, 6, 2, 4))
    with pytest.raises(ValueError, match=f"^row index must be between 0 and 5, got {k}$"):
        accessor(t, k)


def test_rows_are_sums_of_first_order_differences():
    rng = random.Random(3)
    bases = [
        (3, 5, 1, 6, 2, 4),
        (4, 3, 1, 2),
        (2, 4, -1, -3),
        tuple(rng.sample(range(-50, 50), 9)),
        tuple(rng.sample(range(-1000, 1000), 14)),
    ]
    for base in bases:
        t = build(base)
        first = row(t, 1) if len(base) > 1 else ()
        for k in range(1, len(base)):
            for i, value in enumerate(row(t, k)):
                assert value == sum(first[i : i + k])


def test_not_the_classical_difference_table():
    # the classical table differences each row again; this triangle does not
    def classical_rows(base):
        rows = [tuple(base)]
        while len(rows[-1]) > 1:
            prev = rows[-1]
            rows.append(tuple(prev[i + 1] - prev[i] for i in range(len(prev) - 1)))
        return rows

    base = (3, 5, 1, 6, 2, 4)
    classical = classical_rows(base)
    ours = build(base).rows
    assert classical[0] == ours[0] and classical[1] == ours[1]
    assert classical[2][:4] == (-6, 9, -9, 6)
    assert ours[2] == (-2, 1, 1, -2)
    assert classical[2] != ours[2]


def test_signed_and_wide_bases():
    t = build((2, 4, -1, -3))
    assert t.rows == ((2, 4, -1, -3), (2, -5, -2), (-3, -7), (-5,))
    wide = build((10**9, -(10**9), 0))
    assert row(wide, 1) == (-2 * 10**9, 10**9)


def test_render_plain():
    assert render(build((4, 3, 1, 2)), "plain") == "4 3 1 2\n-1 -2 1\n-3 -1\n-2"
    assert render(build((7,)), "plain") == "7"


def test_render_staggered_golden():
    expected = "\n".join(
        (
            "  4     3     1     2",
            "    -1    -2     1",
            "       -3    -1",
            "          -2",
        )
    )
    assert render(build((4, 3, 1, 2)), "staggered") == expected


def test_render_staggered_alignment():
    # row k entry i sits at field k + 2i; fields are max width + 1 wide
    base = (3, 5, 1, 6, 2, 4)
    t = build(base)
    width = max(len(str(x)) for r in t.rows for x in r) + 1
    lines = render(t, "staggered").split("\n")
    for k, r in enumerate(t.rows):
        for i, x in enumerate(r):
            start = (k + 2 * i) * width
            assert lines[k][start : start + width].strip() == str(x)


def test_render_unknown_mode():
    with pytest.raises(ValueError):
        render(build((1, 2)), "diagonal")


def test_json_dict():
    t = build((4, 3, 1, 2))
    assert triangle.to_json_dict(t) == {
        "base": [4, 3, 1, 2],
        "rows": [[4, 3, 1, 2], [-1, -2, 1], [-3, -1], [-2]],
    }


@pytest.mark.parametrize("base", [(1,), (5, 1), (2, 9, 4, 7)])
def test_row_zero_is_base(base):
    assert row(build(base), 0) == base
    assert not row_has_repeat(build(base), len(base) - 1)
