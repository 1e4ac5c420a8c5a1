"""Exact work of the search recursions, pinned.

A walk's recursion calls are the same on any machine, so they show an
algorithmic gain or loss with no timing: `sys.setprofile` counts the calls
of search.py's inner functions `count`, `count_row1` (both in _count_rows),
`first` (in _first_rows) and `visit` (in _walk), with `_cpus` stubbed so
every task runs in process.  A change to a walk that moves a pin states
old -> new.
"""
import sys

import pytest

from permderiv import costas, search


def _calls(name: str, work) -> int:
    """The calls of search.py's functions called name while work() runs."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_name == name and frame.f_code.co_filename == search.__file__:
            calls += 1

    sys.setprofile(profile)
    try:
        work()
    finally:
        sys.setprofile(None)
    return calls


def _count(rule, n: int, **spec):
    return lambda: search.enumerate(search.SearchSpec(n=n, prefix_ok=rule, **spec))


@pytest.fixture
def in_process(monkeypatch):
    monkeypatch.setattr(search, "_cpus", lambda n, spread_order: [])


@pytest.mark.parametrize(
    "work,name,pin",
    [
        pytest.param(_count(search.one_costas_prefix_ok, 9), "count_row1", 32_961, id="one-costas-9"),
        pytest.param(_count(search.costas_prefix_ok, 9), "count", 24_687, id="costas-9"),
        pytest.param(lambda: costas.gamma(13), "first", 1_761, id="gamma-13"),
        pytest.param(lambda: costas.gamma(14), "first", 25_896, id="gamma-14"),
        pytest.param(_count(search.one_costas_prefix_ok, 10), "count_row1", 243_556, id="one-costas-10"),
        pytest.param(_count(search.costas_prefix_ok, 10), "count", 124_173, id="costas-10"),
        pytest.param(_count(search.RowsRule(2), 10), "count", 153_046, id="k-costas-2-10"),
        pytest.param(_count(search.costas_prefix_ok, 9, mode="collect"), "visit", 36_080, id="costas-collect-9"),
        pytest.param(_count(search.one_costas_prefix_ok, 9, mode="optimize", objective=sum), "visit", 89_255,
                     id="one-costas-optimize-9"),
        pytest.param(_count(lambda prefix: search.one_costas_prefix_ok(prefix), 8), "visit", 25_285,
                     id="one-costas-wrapped-8"),
    ],
)
def test_recursion_calls_are_pinned(in_process, work, name, pin):
    calls = _calls(name, work)
    assert calls, f"no call of {name} seen: was it renamed?"
    assert calls == pin
