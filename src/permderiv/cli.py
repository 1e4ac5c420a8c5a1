"""Command-line front end.

Every library operation is reachable as a subcommand with text, JSON or CSV
output.  Exit codes: 0 for success or a true check, 1 for a false check or
a search that came up empty, 2 for invalid input.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
import time
from dataclasses import dataclass, field

from . import costas, dpair, search, triangle, variation, verify
from .perm_core import (
    Permutation,
    derivative,
    format_int_sequence,
    integrate,
    parse_int_sequence,
    realize_shift,
    sum_characteristic,
)

_NEGATIVE_SEQUENCE = re.compile(r"-\d+(?:,-?\d+)*")


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line diagnostics, exit code 2
        raise ValueError(message)


@dataclass
class CommandOutput:
    code: int = 0
    lines: list[str] = field(default_factory=list)
    result: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    csv_rows: list[tuple] | None = None


_CHECK_ONLY = {
    "mid-alternating": variation.is_mid_alternating,
    "centrosymmetric": costas.is_centrosymmetric,
    "costas-centrosymmetric": costas.is_costas_centrosymmetric,
}


def _check_property(text: str):
    """Map a --property value to a predicate on Permutation: check-only or searchable."""
    if text in _CHECK_ONLY:
        return _CHECK_ONLY[text]
    prop = search.searchable(text)
    if prop is not None:
        return prop.holds
    name, sep, param = text.partition("=")
    if sep and name == "lipschitz":
        bound = search.int_parameter(name, param)
        return lambda p: variation.is_lipschitz(p, bound)
    if sep and name == "dpair":
        values = parse_int_sequence(param)
        if len(values) != 2:
            raise ValueError(f"dpair property needs two values, got {param!r}")
        pair = dpair.DPair(*values)
        return lambda p: dpair.is_dpair_realization(p, pair)
    raise ValueError(f"unknown property {text!r}")


def _table_lines(rows) -> list[str]:
    lines = [f"{'n':>3} {'total':>12} {'count':>10} {'fraction':>8}"]
    for r in rows:
        lines.append(f"{r.n:>3} {r.total:>12} {r.count:>10} {r.fraction:>8.1f}")
    return lines


def _table_csv(rows) -> list[tuple]:
    out = [("n", "total", "count", "fraction")]
    out.extend((r.n, r.total, r.count, f"{r.fraction:.1f}") for r in rows)
    return out


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
    t = triangle.build(parse_int_sequence(args.sequence))
    return CommandOutput(
        lines=[triangle.render(t, args.render)],
        result=triangle.to_json_dict(t),
        inputs={"sequence": args.sequence, "render": args.render},
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


# Each construction: the options it needs, in the order they are echoed and passed, and its builder.
_CONSTRUCTIONS = {
    "dpair": (("a", "b"), dpair.construct_dpair),
    "min-local": (("n",), variation.construct_min_local_1costas),
    "max-global": (("n",), variation.construct_max_global),
    "maximin": (("n",), variation.construct_maximin_abs),
    "pi": (("k",), variation.pi_perm),
    "pi-star": (("k",), variation.pi_star),
    "realize-shift": (("n", "s"), realize_shift),
}


def _cmd_construct(args) -> CommandOutput:
    kind = args.construction
    options, builder = _CONSTRUCTIONS[kind]
    inputs = {name: getattr(args, name) for name in options}
    missing = [f"--{name}" for name, value in inputs.items() if value is None]
    if missing:
        raise ValueError(f"construct {kind} needs {' and '.join(missing)}")
    p = builder(*inputs.values())
    extra: dict = {}
    metadata: dict = {}
    if kind == "dpair":
        extra["realized_pair"] = str(dpair.DPair(args.a, -args.b))
        extra["inverse_pair"] = str(dpair.inverse_dpair(args.a, args.b))
    elif kind == "min-local":
        extra["local_variation"] = variation.local_variation(p)
        extra["global_variation"] = variation.global_variation(p)
        if args.n % 2:
            metadata["divergent_closed_forms"] = variation.DIVERGENT_CLOSED_FORMS["min_global_1costas_odd"]
    elif kind == "max-global":
        extra["global_variation"] = variation.global_variation(p)
        if args.n % 2:
            metadata["divergent_closed_forms"] = variation.DIVERGENT_CLOSED_FORMS["delta_star_odd"]
    elif kind == "maximin":
        extra["maximin_abs"] = variation.maximin_abs_value(args.n)
    elif kind == "realize-shift":
        extra["sum_characteristic"] = sorted(sum_characteristic(derivative(p).diffs))
    lines = [str(p), str(derivative(p))]
    result = {"permutation": lines[0], "derivative": lines[1], **extra}
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
        result={"n": row.n, "total": row.total, "count": row.count, "fraction": row.fraction},
        inputs={"property": args.property, "n": args.n},
        csv_rows=_table_csv([row]),
    )


def _cmd_table(args) -> CommandOutput:
    rows = search.table(args.kind, args.max_n)
    return CommandOutput(
        lines=_table_lines(rows),
        result={"rows": [row._asdict() for row in rows]},
        inputs={"kind": args.kind, "max_n": args.max_n},
        csv_rows=_table_csv(rows),
    )


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
        rows, ok = verify.check_reference_counts(args.max_n)
        lines = _table_lines(rows)
        lines.append("figure1: ok" if ok else "figure1: MISMATCH against reference counts")
        return CommandOutput(
            code=0 if ok else 1,
            lines=lines,
            result={"rows": [row._asdict() for row in rows], "ok": ok},
            inputs={"target": "figure1", "max_n": args.max_n},
            csv_rows=_table_csv(rows),
        )
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
    check_help = " | ".join((*search.PROPERTY_FORMS, *_CHECK_ONLY, "lipschitz=L", "dpair=P,Q"))
    p.add_argument("--property", required=True, help=check_help)
    p.add_argument("permutation")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("construct", parents=[common], help="build a named extremal permutation")
    p.add_argument("construction", choices=_CONSTRUCTIONS)
    p.add_argument("--a", type=int, help="small step for dpair")
    p.add_argument("--b", type=int, help="large step for dpair")
    p.add_argument("--n", type=int, help="order")
    p.add_argument("--k", type=int, help="order for pi / pi-star")
    p.add_argument("--s", type=int, help="shift for realize-shift")
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
    p.add_argument("--max-n", type=int, default=10, dest="max_n")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _render(args, out: CommandOutput, runtime: float) -> str:
    if args.format == "text":
        return "\n".join(out.lines)
    if args.format == "csv":
        if out.csv_rows is None:
            raise ValueError(f"--format csv is not supported for {args.command!r}")
        return "\n".join(",".join(str(cell) for cell in row) for row in out.csv_rows)
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
    # A leading space hides comma-joined negative sequences from option parsing.
    argv = [" " + token if _NEGATIVE_SEQUENCE.fullmatch(token) else token for token in argv]
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
