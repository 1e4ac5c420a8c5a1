import argparse
import importlib
import itertools
import json

import pytest

from permderiv import MAX_ORDER, cli, search
from permderiv.triangle import MAX_TRIANGLE_ORDER


def run(capsys, *argv):
    code = cli.run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_derive(capsys):
    code, out, _ = run(capsys, "derive", "5,2,7,4,1,6,3")
    assert code == 0
    assert out == "-3,5,-3,-3,5,-3\n"


def test_integrate_negative_positional(capsys):
    code, out, _ = run(capsys, "integrate", "-3,5,-3,-3,5,-3")
    assert code == 0
    assert out == "5,2,7,4,1,6,3\n"


def test_derive_integrate_round_trip_bytes(capsys):
    original = "5,2,7,4,1,6,3"
    _, derived, _ = run(capsys, "derive", original)
    code, integrated, _ = run(capsys, "integrate", derived.strip())
    assert code == 0
    assert integrated.strip() == original


def test_round_trip_order_one(capsys):
    code, out, _ = run(capsys, "derive", "1")
    assert code == 0
    assert out == "\n"
    code, out, _ = run(capsys, "integrate", out.strip())
    assert code == 0
    assert out == "1\n"


def test_integrate_unrealizable_is_invalid_input(capsys):
    code, _, err = run(capsys, "integrate", "1,-1")
    assert code == 2
    assert err.startswith("error:")


def test_integrate_past_the_order_cap_is_invalid_input(capsys):
    code, out, err = run(capsys, "integrate", ",".join(["1"] * MAX_ORDER))
    assert code == 2
    assert out == ""
    assert err == f"error: order must be between 1 and {MAX_ORDER}, got {MAX_ORDER + 1}\n"


def test_triangle_plain_and_staggered(capsys):
    code, out, _ = run(capsys, "triangle", "4,3,1,2")
    assert code == 0
    assert out == "4 3 1 2\n-1 -2 1\n-3 -1\n-2\n"
    code, out, _ = run(capsys, "triangle", "4,3,1,2", "--render", "staggered")
    assert code == 0
    assert "  4     3     1     2" in out


def test_triangle_json(capsys):
    code, out, _ = run(capsys, "triangle", "2,4,-1,-3", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["command"] == "triangle"
    assert envelope["result"]["base"] == [2, 4, -1, -3]
    assert envelope["result"]["rows"][1] == [2, -5, -2]
    assert "runtime_s" in envelope["metadata"]


@pytest.mark.parametrize(
    "argv,out",
    [(("integrate", "-1,+2"), "2,1,3\n"), (("integrate", "+1,-2"), "2,3,1\n"), (("triangle", "-1,+5,3"), "-1 5 3\n6 -2\n4\n")],
    ids=["integrate-minus-plus", "integrate-plus-minus", "triangle-minus-plus"],
)
def test_sequences_starting_with_a_negative_value_are_values(capsys, argv, out):
    # any token starting with - and a digit is a value, whatever signs its later values carry
    assert run(capsys, *argv) == (0, out, "")


@pytest.mark.parametrize(
    "argv,err",
    [
        (("derive", "2,1_0,3"), "not a comma-separated integer sequence: token 2 is '1_0'"),
        (("triangle", "١,٢"), "not a comma-separated integer sequence: token 1 is '١'"),
        (("derive", "1,2\u3000"), "not a comma-separated integer sequence: token 2 is '2\\u3000'"),
        (("triangle", "-١,٢"), "not a comma-separated integer sequence: token 1 is '-١'"),
        (("count", "--property", "one-costas", "--n", "0_7"), "argument --n: invalid int value: '0_7'"),
        (("count", "--property", "one-costas", "--n", "٧"), "argument --n: invalid int value: '٧'"),
        (("table", "--kind", "costas", "--max-n", "1_0"), "argument --max-n: invalid int value: '1_0'"),
        (("construct", "dpair", "--a", "1_2", "--b", "5"), "argument --a: invalid int value: '1_2'"),
        (("count", "--property", "k-costas=0_1", "--n", "7"), "k-costas property needs an integer, got '0_1'"),
        (("check", "--property", "lipschitz=١", "1,2"), "lipschitz property needs an integer, got '١'"),
        (("check", "--property", "dpair=1,٢", "1,2"), "dpair property needs an integer, got '٢'"),
    ],
    ids=["underscore-token", "arabic-indic-tokens", "unicode-space", "minus-arabic-indic", "underscore-n",
         "arabic-indic-n", "underscore-max-n", "underscore-a", "underscore-k", "arabic-indic-lipschitz",
         "arabic-indic-dpair"],
)
def test_integers_are_ascii_decimal_only(capsys, argv, err):
    # int() alone reads 1_0 as 10 and ١ as 1; the command line takes ASCII digits and sign only
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize(
    "argv,err",
    [
        (("derive", "-x"), "not a comma-separated integer sequence: token 1 is '-x'"),
        (("integrate", "-"), "not a comma-separated integer sequence: token 1 is '-'"),
        (("triangle", "-1,x"), "not a comma-separated integer sequence: token 2 is 'x'"),
        (("check", "--property", "-x", "1,2"), "unknown property '-x'"),
        (("count", "--property", "costas", "--n", "-x"), "argument --n: invalid int value: '-x'"),
        (("construct", "dpair", "--a", "-1x", "--b", "5"), "argument --a: invalid int value: '-1x'"),
    ],
    ids=["derive-letter", "integrate-dash", "triangle-letter-after-minus", "check-property", "count-n", "construct-a"],
)
def test_values_starting_with_a_dash_are_values(capsys, argv, err):
    # no option starts with a single dash but -h, so such a token is a value, named as given
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_flags_are_options(capsys, flag):
    with pytest.raises(SystemExit) as exit_:
        cli.run(["derive", flag])
    assert exit_.value.code == 0
    assert capsys.readouterr().out.startswith("usage: permderiv derive ")


@pytest.mark.parametrize(
    "argv,option",
    [
        (("count", "--property", "one-costas", "--n"), "--n"),
        (("table", "--kind", "costas", "--max-n"), "--max-n"),
        (("construct", "dpair", "--b", "5", "--a"), "--a"),
    ],
    ids=["n", "max-n", "a"],
)
@pytest.mark.parametrize(
    "value,reason",
    [
        ("1" * 5000, "integer out of range: has 5000 digits, more than 4300"),
        ("x" * 5000, "invalid int value: 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ],
    ids=["ones", "letters"],
)
def test_long_int_option_is_one_short_line(capsys, argv, option, value, reason):
    # an integer option's bad value is cut as a long token is, not echoed whole
    code, out, err = run(capsys, *argv, value)
    assert (code, out, err) == (2, "", f"error: argument {option}: {reason}\n")
    assert len(err) < 200


@pytest.mark.parametrize(
    "argv,out",
    [(("derive", " 2, 1"), "-1\n"), (("derive", "\t2,+1 "), "-1\n"),
     (("count", "--property", "one-costas", "--n", " 7 "), "n=7 total=5040 count=788 fraction=15.6\n"),
     (("count", "--property", "k-costas= +1", "--n", "7"), "n=7 total=5040 count=788 fraction=15.6\n")],
    ids=["spaces", "tab-and-sign", "spaced-n", "spaced-signed-k"],
)
def test_integers_take_a_sign_and_ascii_whitespace(capsys, argv, out):
    assert run(capsys, *argv) == (0, out, "")


def test_triangle_json_echoes_the_parsed_sequence(capsys):
    for text in ("-1,5,3", "-1, +5, 3"):
        code, out, _ = run(capsys, "triangle", text, "--format", "json")
        assert code == 0
        assert json.loads(out)["inputs"] == {"sequence": "-1,5,3", "render": "plain"}


def test_triangle_duplicate_values(capsys):
    code, _, err = run(capsys, "triangle", "1,2,1")
    assert code == 2
    assert "error:" in err


def test_triangle_past_the_order_cap_is_invalid_input(capsys):
    code, out, err = run(capsys, "triangle", ",".join(map(str, range(MAX_TRIANGLE_ORDER + 1))))
    assert (code, out) == (2, "")
    assert err == f"error: difference triangle limited to order {MAX_TRIANGLE_ORDER}, got {MAX_TRIANGLE_ORDER + 1}\n"


@pytest.mark.parametrize(
    "prop,perm,expected",
    [
        ("costas", "4,3,1,2", 0),
        ("costas", "3,5,1,6,2,4", 1),
        ("one-costas", "1,2,3", 1),
        ("one-costas", "1", 0),
        ("one-costas", "1,3,4,2,5", 0),
        ("k-costas=1", "1,3,4,2,5", 0),
        ("convex", "6,4,2,1,3,5", 0),
        ("convex", "4,3,1,2", 1),
        ("mid-alternating", "4,6,2,7,3,8,1,5", 0),
        ("centrosymmetric", "2,3,5,8,1,4,6,7", 0),
        ("costas-centrosymmetric", "2,4,3,1,8,6,5,7", 0),
        ("lipschitz=3", "2,4,1,3", 0),
        ("lipschitz=2", "2,4,1,3", 1),
        ("dpair=2,-3", "6,3,5,2,4,1", 0),
        ("dpair=5,-3", "5,2,7,4,1,6,3", 0),
        ("dpair=2,-3", "1", 1),  # an empty derivative realizes no pair
    ],
)
def test_check_properties(capsys, prop, perm, expected):
    code, out, _ = run(capsys, "check", "--property", prop, perm)
    assert code == expected
    assert out.strip() == ("true" if expected == 0 else "false")


def test_check_unknown_property(capsys):
    code, _, err = run(capsys, "check", "--property", "magic", "1,2,3")
    assert code == 2
    assert "unknown property" in err


def test_check_json_holds_flag(capsys):
    code, out, _ = run(capsys, "check", "--property", "costas", "4,3,1,2", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"] == {"property": "costas", "holds": True}


def test_construct_dpair(capsys):
    code, out, _ = run(capsys, "construct", "dpair", "--a", "5", "--b", "13")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "1,6,11,16,3,8,13,18,5,10,15,2,7,12,17,4,9,14"
    assert lines[1] == "5,5,5,-13,5,5,5,-13,5,5,-13,5,5,5,-13,5,5"


def test_construct_dpair_invalid(capsys):
    code, _, err = run(capsys, "construct", "dpair", "--a", "2", "--b", "4")
    assert code == 2
    assert "error:" in err
    code, _, err = run(capsys, "construct", "dpair", "--a", "5")
    assert code == 2
    assert "--b" in err


def test_construct_min_local_metadata(capsys):
    code, out, _ = run(capsys, "construct", "min-local", "--n", "11", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["result"]["derivative"] == "5,-4,3,-2,1,-6,-1,2,-3,4"
    assert envelope["result"]["local_variation"] == 6
    assert "divergent_closed_forms" in envelope["metadata"]


def test_construct_max_global(capsys):
    code, out, _ = run(capsys, "construct", "max-global", "--n", "8")
    assert code == 0
    assert out.split("\n")[0] == "4,6,1,7,2,8,3,5"


def test_construct_maximin_and_pi(capsys):
    code, out, _ = run(capsys, "construct", "maximin", "--n", "7")
    assert code == 0
    assert out.split("\n")[0] == "1,5,2,6,3,7,4"
    code, out, _ = run(capsys, "construct", "pi", "--k", "5")
    assert code == 0
    assert out.split("\n")[0] == "3,4,2,5,1"
    code, out, _ = run(capsys, "construct", "pi-star", "--k", "6")
    assert code == 0
    assert out.split("\n")[0] == "6,4,2,1,3,5"


def test_construct_realize_shift(capsys):
    code, out, _ = run(capsys, "construct", "realize-shift", "--n", "7", "--s", "4")
    assert code == 0
    assert out.split("\n")[0] == "5,1,2,3,4,6,7"


# Each construction's text output and JSON envelope, runtime_s dropped, with
# the JSON keys in the order the command writes them.
CONSTRUCT_OUTPUTS = [
    (["dpair", "--a", "5", "--b", "13"],
     "1,6,11,16,3,8,13,18,5,10,15,2,7,12,17,4,9,14\n5,5,5,-13,5,5,5,-13,5,5,-13,5,5,5,-13,5,5\n",
     '{"command": "construct", "inputs": {"a": 5, "b": 13}, "result": {"permutation": '
     '"1,6,11,16,3,8,13,18,5,10,15,2,7,12,17,4,9,14", "derivative": "5,5,5,-13,5,5,5,-13,5,5,-13,5,5,5,-13,5,5", '
     '"realized_pair": "5,-13", "inverse_pair": "11,-7"}, "metadata": {}}'),
    (["min-local", "--n", "7"],
     "4,7,5,6,2,1,3\n3,-2,1,-4,-1,2\n",
     '{"command": "construct", "inputs": {"n": 7}, "result": {"permutation": "4,7,5,6,2,1,3", '
     '"derivative": "3,-2,1,-4,-1,2", "local_variation": 4, "global_variation": 13}, '
     '"metadata": {"divergent_closed_forms": {"used": "(n^2-1)/4+1", "divergent": "(n-1)^2/4+1", '
     '"note": "the divergent form fails its own order-11 witness, which sums to 31"}}}'),
    (["max-global", "--n", "7"],
     "3,5,1,6,2,7,4\n2,-4,5,-4,5,-3\n",
     '{"command": "construct", "inputs": {"n": 7}, "result": {"permutation": "3,5,1,6,2,7,4", '
     '"derivative": "2,-4,5,-4,5,-3", "global_variation": 23}, '
     '"metadata": {"divergent_closed_forms": {"used": "(n^2-3)/2", "divergent": "(3n^2-6n-13)/4", '
     '"note": "the divergent form matches n=7 but fails exhaustive search at n=5"}}}'),
    (["maximin", "--n", "6"],
     "4,1,5,2,6,3\n-3,4,-3,4,-3\n",
     '{"command": "construct", "inputs": {"n": 6}, "result": {"permutation": "4,1,5,2,6,3", '
     '"derivative": "-3,4,-3,4,-3", "maximin_abs": 3}, "metadata": {}}'),
    (["pi", "--k", "5"],
     "3,4,2,5,1\n1,-2,3,-4\n",
     '{"command": "construct", "inputs": {"k": 5}, "result": {"permutation": "3,4,2,5,1", '
     '"derivative": "1,-2,3,-4"}, "metadata": {}}'),
    (["pi-star", "--k", "6"],
     "6,4,2,1,3,5\n-2,-2,-1,2,2\n",
     '{"command": "construct", "inputs": {"k": 6}, "result": {"permutation": "6,4,2,1,3,5", '
     '"derivative": "-2,-2,-1,2,2"}, "metadata": {}}'),
    (["realize-shift", "--n", "6", "--s", "2"],
     "3,1,2,4,5,6\n-2,1,2,1,1\n",
     '{"command": "construct", "inputs": {"n": 6, "s": 2}, "result": {"permutation": "3,1,2,4,5,6", '
     '"derivative": "-2,1,2,1,1", "sum_characteristic": [-2, -1, 0, 1, 2, 3]}, "metadata": {}}'),
]
# The kinds with an odd-order note, at an even order, where the metadata notes nothing.
EVEN_CONSTRUCT_OUTPUTS = [
    (["min-local", "--n", "8"],
     "2,3,1,4,8,5,7,6\n1,-2,3,4,-3,2,-1\n",
     '{"command": "construct", "inputs": {"n": 8}, "result": {"permutation": "2,3,1,4,8,5,7,6", '
     '"derivative": "1,-2,3,4,-3,2,-1", "local_variation": 4, "global_variation": 16}, "metadata": {}}'),
    (["max-global", "--n", "8"],
     "4,6,1,7,2,8,3,5\n2,-5,6,-5,6,-5,2\n",
     '{"command": "construct", "inputs": {"n": 8}, "result": {"permutation": "4,6,1,7,2,8,3,5", '
     '"derivative": "2,-5,6,-5,6,-5,2", "global_variation": 31}, "metadata": {}}'),
]


@pytest.mark.parametrize(
    "argv,text,envelope", CONSTRUCT_OUTPUTS + EVEN_CONSTRUCT_OUTPUTS,
    ids=[argv[0] for argv, *_ in CONSTRUCT_OUTPUTS] + [f"{argv[0]}-{argv[-1]}" for argv, *_ in EVEN_CONSTRUCT_OUTPUTS],
)
def test_construct_outputs_are_pinned(capsys, argv, text, envelope):
    assert run(capsys, "construct", *argv) == (0, text, "")
    code, out, err = run(capsys, "construct", *argv, "--format", "json")
    assert (code, err) == (0, "")
    parsed = json.loads(out)
    del parsed["metadata"]["runtime_s"]
    assert json.dumps(parsed) == envelope


def test_enumerate_convex(capsys):
    code, out, _ = run(capsys, "enumerate", "--property", "convex", "--n", "4")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6
    assert lines == sorted(lines, key=lambda s: tuple(int(x) for x in s.split(",")))


def test_enumerate_one_costas(capsys):
    code, out, _ = run(capsys, "enumerate", "--property", "one-costas", "--n", "4")
    assert code == 0
    assert len(out.strip().split("\n")) == 12


def test_count_text_and_csv(capsys):
    code, out, _ = run(capsys, "count", "--property", "one-costas", "--n", "7")
    assert code == 0
    assert out.strip() == "n=7 total=5040 count=788 fraction=15.6"
    code, out, _ = run(capsys, "count", "--property", "one-costas", "--n", "7", "--format", "csv")
    assert code == 0
    assert out == "n,total,count,fraction\n7,5040,788,15.6\n"


def test_count_runs_without_a_workers_option(capsys):
    code, out, _ = run(capsys, "count", "--property", "costas", "--n", "6")
    assert code == 0
    assert "count=116" in out
    for argv in (
        ("count", "--property", "costas", "--n", "6"),
        ("table", "--kind", "costas", "--max-n", "4"),
        ("enumerate", "--property", "costas", "--n", "4"),
        ("verify", "figure1", "--max-n", "4"),
        ("derive", "5,2,7,4,1,6,3"),
    ):
        code, out, err = run(capsys, *argv, "--workers", "3")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    (
        ("count", "--property", "costas", "--n", "6"),
        ("enumerate", "--property", "costas", "--n", "4"),
        ("table", "--kind", "one-costas", "--max-n", "4"),
        ("verify", "figure1", "--max-n", "4"),
    ),
)
def test_search_metadata_holds_only_the_runtime(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert set(json.loads(out)["metadata"]) == {"runtime_s"}


def test_table_csv_header(capsys):
    code, out, _ = run(capsys, "table", "--kind", "one-costas", "--max-n", "5", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,total,count,fraction"
    assert lines[1] == "1,1,1,100.0"
    assert lines[5] == "5,120,44,36.7"


def test_table_text(capsys):
    code, out, _ = run(capsys, "table", "--kind", "convex", "--max-n", "6")
    assert code == 0
    assert out.strip().split("\n")[-1].split() == ["6", "720", "8", "1.1"]


def test_csv_not_supported_everywhere(capsys):
    code, _, err = run(capsys, "derive", "1,2,3", "--format", "csv")
    assert code == 2
    assert "csv" in err


@pytest.mark.parametrize(
    "argv,module,work",
    [
        (["gamma", "--n", "40"], "costas", "gamma"),
        (["enumerate", "--property", "costas", "--n", "5"], "search", "matches"),
        (["verify", "examples"], "verify", "run_examples"),
    ],
    ids=["gamma", "enumerate", "verify-examples"],
)
def test_csv_is_rejected_before_the_work(capsys, monkeypatch, argv, module, work):
    # each request's work is stubbed to fail if reached; unstubbed, gamma --n 40 runs with no end
    monkeypatch.setattr(importlib.import_module(f"permderiv.{module}"), work,
                        lambda *args, **kwargs: pytest.fail(f"{module}.{work} ran"))
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert (code, out, err) == (2, "", f"error: --format csv is not supported for {argv[0]!r}\n")


def test_verify_figure1_csv_is_its_count_table(capsys):
    code, out, _ = run(capsys, "verify", "figure1", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out == "n,total,count,fraction\n1,1,1,100.0\n2,2,2,100.0\n3,6,4,66.7\n"


def test_gamma(capsys):
    code, out, _ = run(capsys, "gamma", "--n", "5")
    assert code == 0
    assert out.startswith("m=5\nwitness=")


def test_verify_examples(capsys):
    code, out, _ = run(capsys, "verify", "examples")
    assert code == 0
    assert "passed" in out
    assert "FAIL" not in out


def test_verify_figure1_small(capsys):
    code, out, _ = run(capsys, "verify", "figure1", "--max-n", "6")
    assert code == 0
    assert out.strip().split("\n")[-1] == "figure1: ok"


def test_verify_figure1_bounds(capsys):
    code, _, err = run(capsys, "verify", "figure1", "--max-n", "11")
    assert code == 2
    assert "error:" in err


def test_parse_error_is_exit_2(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run(capsys, "count", "--property", "one-costas")
    assert code == 2


def test_json_envelope_shape(capsys):
    code, out, _ = run(capsys, "derive", "3,5,1,6,2,4", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert list(envelope) == ["command", "inputs", "result", "metadata"]
    assert envelope["inputs"] == {"permutation": "3,5,1,6,2,4"}
    assert envelope["result"] == {"derivative": "2,-4,5,-4,2"}


def test_json_round_trip_through_integrate(capsys):
    original = "4,6,2,7,3,8,1,5"
    _, out, _ = run(capsys, "derive", original, "--format", "json")
    derived = json.loads(out)["result"]["derivative"]
    code, out, _ = run(capsys, "integrate", derived, "--format", "json")
    assert code == 0
    assert json.loads(out)["result"]["permutation"] == original


def test_enumerate_costas(capsys):
    code, out, _ = run(capsys, "enumerate", "--property", "costas", "--n", "5")
    assert code == 0
    assert len(out.strip().split("\n")) == 40


@pytest.mark.parametrize("command", ["count", "enumerate"])
@pytest.mark.parametrize("k", [-1, 5, 9])
def test_k_costas_out_of_range_is_invalid_input(capsys, command, k):
    code, out, err = run(capsys, command, "--property", f"k-costas={k}", "--n", "5")
    assert code == 2
    assert out == ""
    assert err == f"error: k must be between 0 and 4, got {k}\n"


@pytest.mark.parametrize("k", [-1, 5, 9])
def test_check_k_costas_out_of_range_is_invalid_input(capsys, k):
    code, out, err = run(capsys, "check", "--property", f"k-costas={k}", "3,1,4,5,2")
    assert (code, out) == (2, "")
    assert err == f"error: k must be between 0 and 4, got {k}\n"


def test_k_costas_range_ends_are_accepted(capsys):
    code, out, _ = run(capsys, "count", "--property", "k-costas=0", "--n", "5")
    assert code == 0
    assert out.strip() == "n=5 total=120 count=120 fraction=100.0"
    code, out, _ = run(capsys, "count", "--property", "k-costas=4", "--n", "5")
    assert code == 0
    assert "count=40" in out  # every row: the Costas count
    code, out, _ = run(capsys, "enumerate", "--property", "k-costas=4", "--n", "5")
    assert code == 0
    assert len(out.strip().split("\n")) == 40


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--property", "k-costas=x", "1,2,3"],
        ["count", "--property", "k-costas=x", "--n", "5"],
        ["enumerate", "--property", "k-costas=1.5", "--n", "5"],
    ],
)
def test_k_costas_non_integer_names_the_property(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: k-costas property needs an integer")
    assert err.count("\n") == 1
    assert "int()" not in err


@pytest.mark.parametrize(
    "argv,err",
    [
        (["check", "--property", "dpair=1,2,3", "1,2,3"], "error: dpair property needs two values, got '1,2,3'\n"),
        (["count", "--property", "nosuch", "--n", "5"],
         "error: property 'nosuch' is not searchable (use one-costas, costas, k-costas=K or convex)\n"),
        (["check", "--property", "dpair=", "1,2,3"], "error: dpair property needs two values, got ''\n"),
        (["check", "--property", "dpair=2,2", "1,2,3"], "error: pair values must differ, got (2, 2)\n"),
        (["check", "--property", "lipschitz=", "1,2,3"], "error: lipschitz property needs an integer, got ''\n"),
        # a form matches on its name and on whether it takes a parameter
        *[(["check", "--property", text, "1,2,3"], f"error: unknown property {text!r}\n")
          for text in ("lipschitz", "dpair", "k-costas", "costas=1", "mid-alternating=2", "centrosymmetric=")],
        (["check", "--property", "dpair=a,b", "2,4,1,3"], "error: dpair property needs an integer, got 'a'\n"),
        (["check", "--property", "dpair=2,x", "2,4,1,3"], "error: dpair property needs an integer, got 'x'\n"),
        (["check", "--property", "dpair=2,", "2,4,1,3"], "error: dpair property needs an integer, got ''\n"),
        # a long parameter: a valid integer past int()'s digit cap is out of range, other text is cut short
        (["check", "--property", "lipschitz=" + "1" * 5000, "1,2"],
         "error: integer out of range: lipschitz property has 5000 digits, more than 4300\n"),
        (["check", "--property", "k-costas=" + "1" * 5000, "1,2"],
         "error: integer out of range: k-costas property has 5000 digits, more than 4300\n"),
        (["count", "--property", "k-costas=-" + "1" * 5000, "--n", "5"],
         "error: integer out of range: k-costas property has 5000 digits, more than 4300\n"),
        (["check", "--property", "dpair=" + "1" * 5000 + ",2", "1,2"],
         "error: integer out of range: dpair property has 5000 digits, more than 4300\n"),
        (["check", "--property", "lipschitz=" + "x" * 5000, "1,2"],
         "error: lipschitz property needs an integer, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'\n"),
        (["check", "--property", "dpair=" + "x" * 5000, "1,2"],
         "error: dpair property needs two values, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'\n"),
        # a long property text is cut to 30 characters, as a long parameter is; 30 or fewer stay whole
        (["check", "--property", "x" * 5000, "1,2"], "error: unknown property 'xxxxxxxxxxxx...xxxxxxxxxxxxx'\n"),
        (["check", "--property", "x" * 31, "1,2"], "error: unknown property 'xxxxxxxxxxxx...xxxxxxxxxxxxx'\n"),
        (["check", "--property", "x" * 30, "1,2"], f"error: unknown property {'x' * 30!r}\n"),
        *[([command, "--property", "y" * 5000, "--n", "3"],
           "error: property 'yyyyyyyyyyyy...yyyyyyyyyyyyy' is not searchable"
           " (use one-costas, costas, k-costas=K or convex)\n") for command in ("count", "enumerate")],
        (["count", "--property", "k-costas=" + "0" * 4000 + "1", "--n", "20"],
         "error: order for k-costas=000...0000000000001 must be 1..12, got 20\n"),
        (["enumerate", "--property", "k-costas=" + "0" * 4000 + "1", "--n", "20"],
         "error: order for k-costas=000...0000000000001 must be 1..10, got 20\n"),
        (["count", "--property", "k-costas=" + "0" * 20 + "1", "--n", "20"],
         "error: order for k-costas=000000000000000000001 must be 1..12, got 20\n"),
        # a parameter or token of 29 or 30 characters stays whole too, 31 is cut
        *[(["check", "--property", "lipschitz=" + "x" * size, "1,2"],
           f"error: lipschitz property needs an integer, got {'x' * size!r}\n") for size in (29, 30)],
        (["check", "--property", "lipschitz=" + "x" * 31, "1,2"],
         "error: lipschitz property needs an integer, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'\n"),
        (["check", "--property", "dpair=" + "x" * 30, "1,2"], f"error: dpair property needs two values, got {'x' * 30!r}\n"),
        (["check", "--property", "dpair=1," + "x" * 30, "1,2"],
         f"error: dpair property needs an integer, got {'x' * 30!r}\n"),
        (["count", "--property", "k-costas=" + "y" * 30, "--n", "5"],
         f"error: k-costas property needs an integer, got {'y' * 30!r}\n"),
        (["check", "--property", "costas", "1," + "z" * 30],
         f"error: not a comma-separated integer sequence: token 2 is {'z' * 30!r}\n"),
        (["check", "--property", "costas", "1," + "z" * 31],
         "error: not a comma-separated integer sequence: token 2 is 'zzzzzzzzzzzz...zzzzzzzzzzzzz'\n"),
    ],
)
def test_bad_property_text_is_one_line_exit_2(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", err)


def test_lipschitz_non_integer_names_the_property(capsys):
    code, _, err = run(capsys, "check", "--property", "lipschitz=y", "1,2,3")
    assert code == 2
    assert err == "error: lipschitz property needs an integer, got 'y'\n"


def _check_help_forms(capsys, monkeypatch):
    """The property forms `check --help` lists, in order."""
    monkeypatch.setenv("COLUMNS", "400")  # one help line per option
    with pytest.raises(SystemExit):
        cli.run(["check", "--help"])
    line = next(line for line in capsys.readouterr().out.splitlines() if line.lstrip().startswith("--property"))
    return line.split("PROPERTY", 1)[1].strip().split(" | ")


def _instance(form):
    """A property text of the form, with K=1, L=2 and P,Q=2,-3."""
    return form.replace("=K", "=1").replace("=L", "=2").replace("=P,Q", "=2,-3")


def test_check_help_lists_each_form_once(capsys, monkeypatch):
    assert _check_help_forms(capsys, monkeypatch) == [
        "one-costas", "costas", "k-costas=K", "convex", "mid-alternating", "centrosymmetric",
        "costas-centrosymmetric", "lipschitz=L", "dpair=P,Q",
    ]


def test_construct_help_lists_each_construction(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "400")  # the usage on one line
    with pytest.raises(SystemExit):
        cli.run(["construct", "--help"])
    usage = capsys.readouterr().out.splitlines()[0]
    assert usage.rpartition("{")[2].rstrip("}").split(",") == list(cli._CONSTRUCTIONS) == [
        "dpair", "min-local", "max-global", "maximin", "pi", "pi-star", "realize-shift",
    ]


# Each subcommand's arguments as its --help lists them, one per line: the positionals, then the options.
HELP_ARGUMENTS = {
    "derive": ["permutation", "--format {text,json,csv}"],
    "integrate": ["derivative", "--format {text,json,csv}"],
    "triangle": ["sequence", "--format {text,json,csv}", "--render {plain,staggered}"],
    "check": ["permutation", "--format {text,json,csv}", "--property PROPERTY"],
    "construct": ["{dpair,min-local,max-global,maximin,pi,pi-star,realize-shift}", "--format {text,json,csv}",
                  "--a A", "--b B", "--n N", "--k K", "--s S"],
    "enumerate": ["--format {text,json,csv}", "--property PROPERTY", "--n N"],
    "count": ["--format {text,json,csv}", "--property PROPERTY", "--n N"],
    "table": ["--format {text,json,csv}", "--kind {one-costas,costas,convex}", "--max-n MAX_N"],
    "gamma": ["--format {text,json,csv}", "--n N"],
    "verify": ["{figure1,examples}", "--format {text,json,csv}", "--max-n MAX_N"],
}


@pytest.mark.parametrize("command", HELP_ARGUMENTS)
def test_subcommand_help_lists_each_argument(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "400")  # one help line per argument
    with pytest.raises(SystemExit) as exit_:
        cli.run([command, "--help"])
    assert exit_.value.code == 0
    lines = capsys.readouterr().out.splitlines()
    listed = [line[2:].split("  ")[0] for line in lines if line[:2] == "  " and line[2:3] != " "]
    assert [head for head in listed if head != "-h, --help"] == HELP_ARGUMENTS[command]


def test_one_parser_parses_a_subcommand_again_and_another_between():
    # each subcommand adds its arguments the first time it parses, and only then
    parser = cli.build_parser()
    derive = ["derive", "5,2,7,4,1,6,3", "--format", "json"]
    derived = argparse.Namespace(command="derive", format="json", permutation="5,2,7,4,1,6,3", handler=cli._cmd_derive)
    count = ["count", "--property", "costas", "--n", "5"]
    counted = argparse.Namespace(command="count", format="text", property="costas", n=5, handler=cli._cmd_count)
    assert parser.parse_args(derive) == derived
    assert parser.parse_args(derive) == derived
    assert parser.parse_args(count) == counted
    assert parser.parse_args(derive) == derived
    assert parser.parse_args(count) == counted


def test_check_accepts_every_listed_form(capsys, monkeypatch):
    for form in _check_help_forms(capsys, monkeypatch):
        code, out, err = run(capsys, "check", "--property", _instance(form), "2,4,1,3")
        assert (code, out, err) in ((0, "true\n", ""), (1, "false\n", "")), form


def test_check_only_forms_are_not_searchable(capsys, monkeypatch):
    check_only = [form for form in _check_help_forms(capsys, monkeypatch) if form not in search.PROPERTY_FORMS]
    assert check_only
    # search.read_property matches a text's (name, "=") pair: no two forms may share one, and
    # no check-only name may be a searchable one, or count would read a check-only text
    keys = [form.partition("=")[:2] for form in search.PROPERTIES]
    assert len(set(keys)) == len(keys)
    names = {form.partition("=")[0] for form in search.PROPERTY_FORMS}
    assert not {form.partition("=")[0] for form in check_only} & names
    for form in check_only:
        text = _instance(form)
        assert run(capsys, "count", "--property", text, "--n", "5") == (
            2, "", f"error: property {text!r} is not searchable (use one-costas, costas, k-costas=K or convex)\n")


def test_count_csv_is_the_table_csv_row(capsys):
    code, count, _ = run(capsys, "count", "--property", "one-costas", "--n", "7", "--format", "csv")
    assert code == 0
    code, table, _ = run(capsys, "table", "--kind", "one-costas", "--max-n", "7", "--format", "csv")
    assert code == 0
    assert count == "n,total,count,fraction\n" + table.splitlines()[-1] + "\n"


@pytest.mark.parametrize(
    "argv,err",
    [
        (["construct", "dpair", "--a", "5", "--b", "13", "--n", "3"], "construct dpair does not take --n"),
        (["construct", "pi", "--k", "3", "--n", "5", "--s", "1"], "construct pi does not take --n and --s"),
        (["construct", "realize-shift", "--n", "5", "--s", "2", "--a", "1"], "construct realize-shift does not take --a"),
        (["construct", "pi", "--n", "5"], "construct pi needs --k"),  # the missing option is named first
        (["verify", "examples", "--max-n", "3"], "verify examples does not take --max-n"),
        (["verify", "figure1", "--max-n", "0"], "reference data covers orders 1..10, got 0"),
    ],
)
def test_options_a_subcommand_would_ignore_are_rejected(capsys, argv, err):
    assert run(capsys, *argv) == (2, "", f"error: {err}\n")


def test_verify_figure1_defaults_to_order_10(capsys):
    code, out, _ = run(capsys, "verify", "figure1", "--format", "json")
    assert code == 0
    envelope = json.loads(out)
    assert envelope["inputs"] == {"target": "figure1", "max_n": 10}
    assert [row["n"] for row in envelope["result"]["rows"]] == list(range(1, 11))


# (property, count cap, enumerate cap); the first three are also table kinds,
# with the count cap.
ORDER_CAPS = [
    ("one-costas", 12, 10),
    ("costas", 9, 9),
    ("convex", 64, 64),
    ("k-costas=0", 10, 8),
    ("k-costas=1", 12, 10),
]
CAP_CASES = [(command, prop, cap) for prop, count_cap, enumerate_cap in ORDER_CAPS
             for command, cap in [("count", count_cap), ("enumerate", enumerate_cap), ("table", count_cap)]
             if command != "table" or "=" not in prop]


def _order_argv(command, prop, n):
    if command == "table":
        return ["table", "--kind", prop, "--max-n", str(n)]
    return [command, "--property", prop, "--n", str(n)]


@pytest.mark.parametrize("command,prop,cap", CAP_CASES)
def test_order_caps(capsys, command, prop, cap):
    for n in (0, cap + 1):
        code, out, err = run(capsys, *_order_argv(command, prop, n))
        assert (code, out) == (2, "")
        assert err == f"error: order for {prop} must be 1..{cap}, got {n}\n"
    lowest = 2 if prop == "k-costas=1" else 1  # k-costas=K is defined from order K+1
    code, out, err = run(capsys, *_order_argv(command, prop, lowest))
    assert code == 0 and out and not err


@pytest.mark.parametrize("n", range(1, 7))
def test_check_agrees_with_enumerate(capsys, n):
    parser = cli.build_parser()
    for prop in ["one-costas", "costas", "convex"] + [f"k-costas={k}" for k in range(n)]:
        code, out, _ = run(capsys, "enumerate", "--property", prop, "--n", str(n))
        assert code == 0
        listed = set(out.split())
        for entries in itertools.permutations(range(1, n + 1)):
            perm = ",".join(map(str, entries))
            args = parser.parse_args(["check", "--property", prop, perm])
            assert args.handler(args).code == (0 if perm in listed else 1), (prop, perm)


@pytest.mark.parametrize("n", ["0", "65", "1000000000"])
def test_gamma_order_cap_is_invalid_input(capsys, n):
    code, out, err = run(capsys, "gamma", "--n", n)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
