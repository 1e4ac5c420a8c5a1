"""Command-line front end.

Every library operation is reachable as a subcommand with text or JSON output, and a
count table (count, table, verify figure1) also as CSV written from its rows.  construct
and verify reject an option they would ignore.  Exit codes: 0 for success or a true
check, 1 for a false check or a search that came up empty, 2 for invalid input.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

from . import costas, dpair, search, triangle, variation, verify
from .perm_core import (
    Permutation,
    _parse_int,
    _shown,
    derivative,
    format_int_sequence,
    integrate,
    parse_int_sequence,
    realize_shift,
    sum_characteristic,
)

def _int_option(text: str) -> int:
    """A type=int option's value, read as ASCII decimal only (_parse_int); argparse prints
    an ArgumentTypeError's reason as given, and words any other error itself."""
    try:
        return _parse_int(text, "", "invalid int value:")
    except ValueError as error:
        raise argparse.ArgumentTypeError(str(error)) from None


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _int_option)

    def error(self, message):  # one-line diagnostics, exit code 2
        raise ValueError(message)

    def _parse_optional(self, arg_string):
        # -1,+2 or -x is a value, for its command to judge: no option starts with a single - but -h
        if arg_string[:1] == "-" and arg_string[1:2] != "-" and arg_string != "-h":
            return None
        return super()._parse_optional(arg_string)


@dataclass
class CommandOutput:
    code: int = 0
    lines: list[str] = field(default_factory=list)
    result: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    rows: tuple[search.CountRow, ...] | None = None  # a count table, the only output with CSV


def _dpair(param: str):
    values = param.split(",")
    if len(values) != 2:
        raise ValueError(f"dpair property needs two values, got {_shown(param)!r}")
    return partial(dpair.is_dpair_realization, pair=dpair.DPair(*(search.int_parameter("dpair", v) for v in values)))


# Each check-only property by printed form: bare, its predicate; NAME=X, a builder of it from X.
_CHECK_ONLY = {
    "mid-alternating": variation.is_mid_alternating,
    "centrosymmetric": costas.is_centrosymmetric,
    "costas-centrosymmetric": costas.is_costas_centrosymmetric,
    "lipschitz=L": lambda param: partial(variation.is_lipschitz, bound=search.int_parameter("lipschitz", param)),
    "dpair=P,Q": _dpair,
}


def _check_property(text: str):
    """Map a --property value to a predicate on Permutation: searchable or check-only."""
    prop = search.searchable(text)
    if prop is not None:
        return prop.holds
    name, sep, param = text.partition("=")
    for form, entry in _CHECK_ONLY.items():
        if form.partition("=")[:2] == (name, sep):
            return entry(param) if sep else entry
    raise ValueError(f"unknown property {_shown(text)!r}")


def _table_output(rows, **fields) -> CommandOutput:
    """A count table as text lines, JSON rows and, through CommandOutput.rows, CSV."""
    lines = [f"{'n':>3} {'total':>12} {'count':>10} {'fraction':>8}"]
    lines.extend(f"{r.n:>3} {r.total:>12} {r.count:>10} {r.fraction:>8.1f}" for r in rows)
    return CommandOutput(lines=lines, result={"rows": [r._asdict() for r in rows]}, rows=rows, **fields)


def _cmd_derive(args) -> CommandOutput:
    p = Permutation.from_string(args.permutation)
    d = derivative(p)
    return CommandOutput(
        lines=[str(d)],
        result={"derivative": str(d)},
        inputs={"permutation": str(p)},
    )


def _cmd_integrate(args) -> CommandOutput:
    diffs = parse_int_sequence(args.derivative)
    p = integrate(diffs)
    return CommandOutput(
        lines=[str(p)],
        result={"permutation": str(p)},
        inputs={"derivative": format_int_sequence(diffs)},
    )


def _cmd_triangle(args) -> CommandOutput:
    values = parse_int_sequence(args.sequence)
    t = triangle.build(values)
    return CommandOutput(
        lines=[triangle.render(t, args.render)],
        result=triangle.to_json_dict(t),
        inputs={"sequence": format_int_sequence(values), "render": args.render},
    )


def _cmd_check(args) -> CommandOutput:
    predicate = _check_property(args.property)
    p = Permutation.from_string(args.permutation)
    holds = bool(predicate(p))
    return CommandOutput(
        code=0 if holds else 1,
        lines=["true" if holds else "false"],
        result={"property": args.property, "holds": holds},
        inputs={"permutation": str(p), "property": args.property},
    )


# A construct kind: its options, in the order they are echoed and passed to build; its values beyond the permutation
# and derivative, from the permutation and the options; and a refuted odd-order closed form, noted at odd orders.
class _Construction(NamedTuple):
    options: tuple[str, ...]
    build: Callable[..., Permutation]
    values: Callable[..., dict] = lambda p, *options: {}
    note: dict | None = None


_CONSTRUCTIONS = {
    "dpair": _Construction(
        ("a", "b"), dpair.construct_dpair,
        lambda p, a, b: {"realized_pair": str(dpair.DPair(a, -b)), "inverse_pair": str(dpair.inverse_dpair(a, b))}),
    "min-local": _Construction(
        ("n",), variation.construct_min_local_1costas,
        lambda p, n: {"local_variation": variation.local_variation(p), "global_variation": variation.global_variation(p)},
        {"used": "(n^2-1)/4+1", "divergent": "(n-1)^2/4+1",
         "note": "the divergent form fails its own order-11 witness, which sums to 31"}),
    "max-global": _Construction(
        ("n",), variation.construct_max_global, lambda p, n: {"global_variation": variation.global_variation(p)},
        {"used": "(n^2-3)/2", "divergent": "(3n^2-6n-13)/4",
         "note": "the divergent form matches n=7 but fails exhaustive search at n=5"}),
    "maximin": _Construction(
        ("n",), variation.construct_maximin_abs, lambda p, n: {"maximin_abs": variation.maximin_abs_value(n)}),
    "pi": _Construction(("k",), variation.pi_perm),
    "pi-star": _Construction(("k",), variation.pi_star),
    "realize-shift": _Construction(
        ("n", "s"), realize_shift, lambda p, n, s: {"sum_characteristic": sorted(sum_characteristic(derivative(p).diffs))}),
}
# Every construct option, in help order, with its help.
_CONSTRUCT_OPTIONS = {"a": "small step for dpair", "b": "large step for dpair", "n": "order",
                      "k": "order for pi / pi-star", "s": "shift for realize-shift"}


def _cmd_construct(args) -> CommandOutput:
    kind = args.construction
    construction = _CONSTRUCTIONS[kind]
    inputs = {name: getattr(args, name) for name in construction.options}
    missing = [f"--{name}" for name, value in inputs.items() if value is None]
    if missing:
        raise ValueError(f"construct {kind} needs {' and '.join(missing)}")
    ignored = [f"--{name}" for name in _CONSTRUCT_OPTIONS if name not in inputs and getattr(args, name) is not None]
    if ignored:
        raise ValueError(f"construct {kind} does not take {' and '.join(ignored)}")
    p = construction.build(*inputs.values())
    lines = [str(p), str(derivative(p))]
    result = {"permutation": lines[0], "derivative": lines[1], **construction.values(p, *inputs.values())}
    metadata = {"divergent_closed_forms": construction.note} if construction.note and p.n % 2 else {}
    return CommandOutput(lines=lines, result=result, inputs=inputs, metadata=metadata)


def _cmd_enumerate(args) -> CommandOutput:
    perms = [str(p) for p in search.matches(args.property, args.n, collect=True)]
    return CommandOutput(
        lines=perms,
        result={"count": len(perms), "permutations": perms},
        inputs={"property": args.property, "n": args.n},
    )


def _cmd_count(args) -> CommandOutput:
    row = search.count_row(args.property, args.n)
    return CommandOutput(
        lines=[f"n={row.n} total={row.total} count={row.count} fraction={row.fraction:.1f}"],
        result=row._asdict(),
        inputs={"property": args.property, "n": args.n},
        rows=(row,),
    )


def _cmd_table(args) -> CommandOutput:
    return _table_output(search.table(args.kind, args.max_n), inputs={"kind": args.kind, "max_n": args.max_n})


def _cmd_gamma(args) -> CommandOutput:
    m, witness = costas.gamma(args.n)
    text = format_int_sequence(witness)
    return CommandOutput(
        lines=[f"m={m}", f"witness={text}"],
        result={"m": m, "witness": text},
        inputs={"n": args.n},
    )


def _cmd_verify(args) -> CommandOutput:
    if args.target == "figure1":
        max_n = len(verify.REFERENCE_ONE_COSTAS) if args.max_n is None else args.max_n
        rows, ok = verify.check_reference_counts(max_n)
        out = _table_output(rows, code=0 if ok else 1, inputs={"target": "figure1", "max_n": max_n})
        out.lines.append("figure1: ok" if ok else "figure1: MISMATCH against reference counts")
        out.result["ok"] = ok
        return out
    if args.max_n is not None:
        raise ValueError("verify examples does not take --max-n")
    outcomes = verify.run_examples()
    failed = [name for name, ok in outcomes if not ok]
    lines = [("ok   " if ok else "FAIL ") + name for name, ok in outcomes]
    lines.append(f"examples: {len(outcomes) - len(failed)}/{len(outcomes)} passed")
    return CommandOutput(
        code=0 if not failed else 1,
        lines=lines,
        result={
            "examples": [{"name": name, "ok": ok} for name, ok in outcomes],
            "passed": len(outcomes) - len(failed),
            "failed": len(failed),
        },
        inputs={"target": "examples"},
    )


def build_parser() -> _Parser:
    parser = _Parser(prog="permderiv", description=__doc__)
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"), default="text")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("derive", parents=[common], help="derivative of a permutation")
    p.add_argument("permutation", help="comma-separated entries, e.g. 5,2,7,4,1,6,3")
    p.set_defaults(handler=_cmd_derive)

    p = sub.add_parser("integrate", parents=[common], help="permutation with the given derivative")
    p.add_argument("derivative", help="comma-separated differences, e.g. -3,5,-3,-3,5,-3")
    p.set_defaults(handler=_cmd_integrate)

    p = sub.add_parser("triangle", parents=[common], help="difference triangle of a distinct-integer sequence")
    p.add_argument("sequence")
    p.add_argument("--render", choices=("plain", "staggered"), default="plain")
    p.set_defaults(handler=_cmd_triangle)

    p = sub.add_parser("check", parents=[common], help="test a permutation property")
    p.add_argument("--property", required=True, help=" | ".join((*search.PROPERTY_FORMS, *_CHECK_ONLY)))
    p.add_argument("permutation")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("construct", parents=[common], help="build a named extremal permutation")
    p.add_argument("construction", choices=_CONSTRUCTIONS)
    for name, text in _CONSTRUCT_OPTIONS.items():
        p.add_argument(f"--{name}", type=int, help=text)
    p.set_defaults(handler=_cmd_construct)

    searched = argparse.ArgumentParser(add_help=False, parents=[common])
    searched.add_argument("--property", required=True, help=" | ".join(search.PROPERTY_FORMS))
    searched.add_argument("--n", type=int, required=True)

    p = sub.add_parser("enumerate", parents=[searched], help="list all permutations with a property")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("count", parents=[searched], help="count permutations with a property")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("table", parents=[common], help="count table for orders 1..max-n")
    p.add_argument("--kind", choices=search.TABLE_KINDS, required=True)
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    p.set_defaults(handler=_cmd_table)

    p = sub.add_parser("gamma", parents=[common], help="longest Costas subpermutation of order n")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_gamma)

    p = sub.add_parser("verify", parents=[common], help="bundled self-checks")
    p.add_argument("target", choices=("figure1", "examples"))
    p.add_argument("--max-n", type=int, dest="max_n")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _render(args, out: CommandOutput, runtime: float) -> str:
    if args.format == "text":
        return "\n".join(out.lines)
    if args.format == "csv":
        if out.rows is None:
            raise ValueError(f"--format csv is not supported for {args.command!r}")
        lines = [",".join(search.CountRow._fields)]
        lines.extend(f"{r.n},{r.total},{r.count},{r.fraction:.1f}" for r in out.rows)
        return "\n".join(lines)
    metadata = dict(out.metadata)
    metadata["runtime_s"] = round(runtime, 6)
    envelope = {
        "command": args.command,
        "inputs": out.inputs,
        "result": out.result,
        "metadata": metadata,
    }
    return json.dumps(envelope, indent=2)


def run(argv=None) -> int:
    """Parse argv, dispatch, print the result; returns the exit code."""
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.perf_counter()
        out: CommandOutput = args.handler(args)
        rendered = _render(args, out, time.perf_counter() - started)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(rendered)
    return out.code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
