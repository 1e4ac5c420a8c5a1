"""Command-line front end.

Every library operation is reachable as a subcommand with text, JSON or CSV
output.  Exit codes: 0 for success or a true check, 1 for a false check or
a search that came up empty, 2 for invalid input.
"""
from __future__ import annotations

import argparse
import json
import math
import re
import sys
import time
from dataclasses import dataclass, field

from . import convexity, costas, dpair, search, triangle, variation, verify
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


class _CliArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one-line diagnostics, exit code 2
        raise _CliArgumentError(message)


@dataclass
class CommandOutput:
    code: int = 0
    lines: list[str] = field(default_factory=list)
    result: dict = field(default_factory=dict)
    inputs: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    csv_rows: list[tuple] | None = None


def _perm_arg(text: str) -> Permutation:
    return Permutation(parse_int_sequence(text))


def _check_property(text: str):
    """Map a --property value to (canonical name, predicate on Permutation)."""
    plain = {
        "costas": costas.is_costas,
        "one-costas": lambda p: costas.is_k_costas(p, 1),
        "convex": convexity.is_convex,
        "mid-alternating": variation.is_mid_alternating,
        "centrosymmetric": costas.is_centrosymmetric,
        "costas-centrosymmetric": costas.is_costas_centrosymmetric,
    }
    if text in plain:
        return text, plain[text]
    name, sep, param = text.partition("=")
    if not sep:
        raise ValueError(f"unknown property {text!r}")
    if name == "k-costas":
        k = _int_param(name, param)
        return text, lambda p: costas.is_k_costas(p, k)
    if name == "lipschitz":
        bound = _int_param(name, param)
        return text, lambda p: variation.is_lipschitz(p, bound)
    if name == "dpair":
        values = parse_int_sequence(param)
        if len(values) != 2:
            raise ValueError(f"dpair property needs two values, got {param!r}")
        pair = dpair.DPair(*values)
        return text, lambda p: dpair.is_dpair_realization(p, pair)
    raise ValueError(f"unknown property {text!r}")


def _int_param(name: str, param: str) -> int:
    try:
        return int(param)
    except ValueError:
        raise ValueError(f"{name} property needs an integer, got {param!r}") from None


def _search_property(text: str, n: int, action: str, cap_limit: int = 12):
    """Map a --property value to a hereditary prefix predicate, checking the order n against its cap."""
    k = None
    if text == "one-costas":
        prefix_ok, cap = search.one_costas_prefix_ok, 12
    elif text == "costas":
        prefix_ok, cap = search.costas_prefix_ok, 9
    else:
        name, sep, param = text.partition("=")
        if not (sep and name == "k-costas"):
            raise ValueError(f"property {text!r} is not searchable (use one-costas, costas, k-costas=K or convex)")
        k = _int_param(name, param)
        prefix_ok, cap = search.k_costas_prefix_ok(k), 10 if k == 0 else 12
    cap = min(cap, cap_limit)
    if not 1 <= n <= cap:
        raise ValueError(f"order for {text} {action} must be 1..{cap}, got {n}")
    if k is not None:
        costas.check_k(k, n)
    return prefix_ok


def _perm_and_derivative(p: Permutation) -> tuple[list[str], dict]:
    d = derivative(p)
    return [str(p), str(d)], {"permutation": str(p), "derivative": str(d)}


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
    p = _perm_arg(args.permutation)
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
        lines=triangle.render(t, args.render).split("\n"),
        result=triangle.to_json_dict(t),
        inputs={"sequence": args.sequence, "render": args.render},
    )


def _cmd_check(args) -> CommandOutput:
    name, predicate = _check_property(args.property)
    p = _perm_arg(args.permutation)
    holds = bool(predicate(p))
    return CommandOutput(
        code=0 if holds else 1,
        lines=["true" if holds else "false"],
        result={"property": name, "holds": holds},
        inputs={"permutation": str(p), "property": name},
    )


def _cmd_construct(args) -> CommandOutput:
    kind = args.construction
    metadata: dict = {}
    if kind == "dpair":
        p = dpair.construct_dpair(args.a, args.b)
        lines, result = _perm_and_derivative(p)
        result["realized_pair"] = str(dpair.DPair(args.a, -args.b))
        result["inverse_pair"] = str(dpair.inverse_dpair(args.a, args.b))
        inputs = {"a": args.a, "b": args.b}
    elif kind == "min-local":
        p = variation.construct_min_local_1costas(args.n)
        lines, result = _perm_and_derivative(p)
        result["local_variation"] = variation.local_variation(p)
        result["global_variation"] = variation.global_variation(p)
        if args.n % 2:
            metadata["divergent_closed_forms"] = variation.DIVERGENT_CLOSED_FORMS["min_global_1costas_odd"]
        inputs = {"n": args.n}
    elif kind == "max-global":
        p = variation.construct_max_global(args.n)
        lines, result = _perm_and_derivative(p)
        result["global_variation"] = variation.global_variation(p)
        if args.n % 2:
            metadata["divergent_closed_forms"] = variation.DIVERGENT_CLOSED_FORMS["delta_star_odd"]
        inputs = {"n": args.n}
    elif kind == "maximin":
        p = variation.construct_maximin_abs(args.n)
        lines, result = _perm_and_derivative(p)
        result["maximin_abs"] = variation.maximin_abs_value(args.n)
        inputs = {"n": args.n}
    elif kind == "pi":
        p = variation.pi_perm(args.k)
        lines, result = _perm_and_derivative(p)
        inputs = {"k": args.k}
    elif kind == "pi-star":
        p = variation.pi_star(args.k)
        lines, result = _perm_and_derivative(p)
        inputs = {"k": args.k}
    else:  # realize-shift
        p = realize_shift(args.n, args.s)
        lines, result = _perm_and_derivative(p)
        result["sum_characteristic"] = sorted(sum_characteristic(derivative(p).diffs))
        inputs = {"n": args.n, "s": args.s}
    return CommandOutput(lines=lines, result=result, inputs=inputs, metadata=metadata)


def _cmd_enumerate(args) -> CommandOutput:
    inputs = {"property": args.property, "n": args.n}
    if args.property == "convex":
        if not 1 <= args.n <= 64:
            raise ValueError(f"order for convex enumeration must be 1..64, got {args.n}")
        perms = sorted(convexity.enumerate_convex(args.n), key=lambda p: p.entries)
    else:
        # collection materializes; keep output desk-sized
        prefix_ok = _search_property(args.property, args.n, "enumeration", cap_limit=10)
        spec = search.SearchSpec(n=args.n, prefix_ok=prefix_ok, mode="collect")
        perms = search.enumerate(spec, workers=args.workers)
    return CommandOutput(
        lines=[str(p) for p in perms],
        result={"count": len(perms), "permutations": [str(p) for p in perms]},
        inputs=inputs,
        metadata={"workers": args.workers},
    )


def _count_row_for(property_name: str, n: int, workers: int) -> search.CountRow:
    if property_name == "one-costas":
        return search.count_one_costas(n, workers=workers)
    if property_name == "convex":
        if not 1 <= n <= 64:
            raise ValueError(f"order for convex counting must be 1..64, got {n}")
        count = len(convexity.enumerate_convex(n))
    elif property_name == "costas":
        count = search.count_costas(n, workers=workers)
    else:
        prefix_ok = _search_property(property_name, n, "counting")
        count = search.enumerate(search.SearchSpec(n=n, prefix_ok=prefix_ok), workers=workers)
    total = math.factorial(n)
    return search.CountRow(n, total, count, search._fraction(count, total))


def _cmd_count(args) -> CommandOutput:
    row = _count_row_for(args.property, args.n, args.workers)
    return CommandOutput(
        lines=[f"n={row.n} total={row.total} count={row.count} fraction={row.fraction:.1f}"],
        result={"n": row.n, "total": row.total, "count": row.count, "fraction": row.fraction},
        inputs={"property": args.property, "n": args.n},
        metadata={"workers": args.workers},
        csv_rows=_table_csv([row]),
    )


def _cmd_table(args) -> CommandOutput:
    rows = search.table(args.kind, args.max_n, workers=args.workers)
    return CommandOutput(
        lines=_table_lines(rows),
        result={"rows": [row._asdict() for row in rows]},
        inputs={"kind": args.kind, "max_n": args.max_n},
        metadata={"workers": args.workers},
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
        rows, ok = verify.check_reference_counts(args.max_n, workers=args.workers)
        lines = _table_lines(rows)
        lines.append("figure1: ok" if ok else "figure1: MISMATCH against reference counts")
        return CommandOutput(
            code=0 if ok else 1,
            lines=lines,
            result={"rows": [row._asdict() for row in rows], "ok": ok},
            inputs={"target": "figure1", "max_n": args.max_n},
            metadata={"workers": args.workers},
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
    common.add_argument("--workers", type=int, default=1)

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
    p.add_argument(
        "--property",
        required=True,
        help="costas | k-costas=K | one-costas | convex | mid-alternating | "
        "centrosymmetric | costas-centrosymmetric | lipschitz=L | dpair=P,Q",
    )
    p.add_argument("permutation")
    p.set_defaults(handler=_cmd_check)

    p = sub.add_parser("construct", parents=[common], help="build a named extremal permutation")
    p.add_argument(
        "construction",
        choices=("dpair", "min-local", "max-global", "maximin", "pi", "pi-star", "realize-shift"),
    )
    p.add_argument("--a", type=int, help="small step for dpair")
    p.add_argument("--b", type=int, help="large step for dpair")
    p.add_argument("--n", type=int, help="order")
    p.add_argument("--k", type=int, help="order for pi / pi-star")
    p.add_argument("--s", type=int, help="shift for realize-shift")
    p.set_defaults(handler=_cmd_construct)

    p = sub.add_parser("enumerate", parents=[common], help="list all permutations with a property")
    p.add_argument("--property", required=True, help="one-costas | costas | k-costas=K | convex")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("count", parents=[common], help="count permutations with a property")
    p.add_argument("--property", required=True, help="one-costas | costas | k-costas=K | convex")
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("table", parents=[common], help="count table for orders 1..max-n")
    p.add_argument("--kind", choices=("one-costas", "costas", "convex"), required=True)
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


def _validate_construct_args(args) -> None:
    required = {
        "dpair": ("a", "b"),
        "min-local": ("n",),
        "max-global": ("n",),
        "maximin": ("n",),
        "pi": ("k",),
        "pi-star": ("k",),
        "realize-shift": ("n", "s"),
    }[args.construction]
    missing = [f"--{name}" for name in required if getattr(args, name) is None]
    if missing:
        raise ValueError(f"construct {args.construction} needs {' and '.join(missing)}")


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
        if args.command == "construct":
            _validate_construct_args(args)
        if args.workers < 1:
            raise ValueError(f"--workers must be positive, got {args.workers}")
        started = time.perf_counter()
        out: CommandOutput = args.handler(args)
        rendered = _render(args, out, time.perf_counter() - started)
    except _CliArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if rendered:
        print(rendered)
    elif args.format == "text":
        print()
    return out.code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
