"""The property registry against the package: every form of search.PROPERTIES, instanced,
gives check the verdict of the package's own predicate on every permutation of order 1..6,
and each searchable form counts and lists exactly the permutations check accepts."""
import functools
import itertools
import json

import pytest

from permderiv import (
    Permutation,
    cli,
    is_centrosymmetric,
    is_convex,
    is_costas,
    is_costas_centrosymmetric,
    is_dpair_realization,
    is_k_costas,
    is_lipschitz,
    is_mid_alternating,
    search,
)
from permderiv.dpair import DPair


def _instances(n: int):
    """(property text, the package's verdict on a Permutation) for each form at order n.

    K runs over 0..n-1, L over {1, 2} and P,Q over {2,-3} and {1,-2}; K = n, L = 0 and
    P,Q = 1,1 are ones the package refuses, with ValueError."""
    yield "one-costas", lambda p: is_k_costas(p, min(1, p.n - 1))  # order 1 has no row 1
    yield "costas", is_costas
    for k in range(n + 1):
        yield f"k-costas={k}", functools.partial(is_k_costas, k=k)
    yield "convex", is_convex
    yield "mid-alternating", is_mid_alternating
    yield "centrosymmetric", is_centrosymmetric
    yield "costas-centrosymmetric", is_costas_centrosymmetric
    for bound in (0, 1, 2):
        yield f"lipschitz={bound}", functools.partial(is_lipschitz, bound=bound)
    for p, q in ((2, -3), (1, -2), (1, 1)):
        yield f"dpair={p},{q}", lambda perm, p=p, q=q: is_dpair_realization(perm, DPair(p, q))


def _name(text: str) -> str:
    return text.partition("=")[0]


SEARCHABLE_NAMES = {_name(form) for form in search.PROPERTY_FORMS}


def _verdict(call):
    """call()'s truth, or the error line a ValueError from it prints."""
    try:
        return bool(call())
    except ValueError as error:
        return f"error: {error}"


def _run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _printed(verdict) -> tuple[int, str, str]:
    """What check prints for a verdict: exit code, stdout and stderr."""
    if isinstance(verdict, str):
        return 2, "", verdict + "\n"
    return (0, "true\n", "") if verdict else (1, "false\n", "")


def test_the_instances_cover_every_form():
    assert {_name(text) for text, _ in _instances(3)} == {_name(form) for form in search.PROPERTIES}


@pytest.mark.parametrize("n", range(1, 7))
def test_check_is_the_packages_verdict_and_search_finds_what_check_accepts(capsys, n):
    perms = [Permutation(entries) for entries in itertools.permutations(range(1, n + 1))]
    for text, predicate in _instances(n):
        accepted = 0
        for p in perms:
            expected = _verdict(lambda: predicate(p))
            if n <= 4:  # the whole request
                assert _run(capsys, "check", "--property", text, str(p)) == _printed(expected), (text, p)
            else:  # the registry's predicate
                assert _verdict(lambda: cli._check_property(text)(p)) == expected, (text, p)
            accepted += expected is True
        if _name(text) not in SEARCHABLE_NAMES:
            continue
        code, out, err = _run(capsys, "count", "--property", text, "--n", str(n), "--format", "json")
        listed = _run(capsys, "enumerate", "--property", text, "--n", str(n))
        if isinstance(expected, str):  # a K the order refuses: every request says so alike
            assert (code, out, err) == listed == (2, "", expected + "\n"), text
            continue
        assert (code, err, listed[0], listed[2]) == (0, "", 0, ""), text
        assert json.loads(out)["result"]["count"] == len(listed[1].splitlines()) == accepted, text
