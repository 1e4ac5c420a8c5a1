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
from typing import Callable, NamedTuple

from . import dpair, variation
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
    """A parser whose errors raise ValueError.  A subcommand's parser is given populate, which adds
    its arguments after --format the first time it parses, so a request adds only its own."""

    def __init__(self, *args, populate=None, **kwargs):
        super().__init__(*args, **kwargs)
        self.register("type", int, _int_option)
        self._populate = populate

    def parse_known_args(self, args=None, namespace=None):
        populate, self._populate = self._populate, None
        if populate is not None:
            self.add_argument("--format", choices=("text", "json", "csv"), default="text")
            populate(self)
        return super().parse_known_args(args, namespace)

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
    rows: tuple | None = None  # a count table of search.CountRow, the only output with CSV


def _check_property(text: str):
    """Map a --property value to a predicate on Permutation: searchable or check-only."""
    from .search import PROPERTIES, Searchable, read_property

    entry = read_property(text, PROPERTIES)
    if entry is None:
        raise ValueError(f"unknown property {_shown(text)!r}")
    if isinstance(entry, Searchable):
        return entry.holds
    return getattr(sys.modules[__package__], entry) if isinstance(entry, str) else entry


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
    from . import triangle

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
    from . import search

    perms = [str(p) for p in search.matches(args.property, args.n, collect=True)]
    return CommandOutput(
        lines=perms,
        result={"count": len(perms), "permutations": perms},
        inputs={"property": args.property, "n": args.n},
    )


def _cmd_count(args) -> CommandOutput:
    from . import search

    row = search.count_row(args.property, args.n)
    return CommandOutput(
        lines=[f"n={row.n} total={row.total} count={row.count} fraction={row.fraction:.1f}"],
        result=row._asdict(),
        inputs={"property": args.property, "n": args.n},
        rows=(row,),
    )


def _cmd_table(args) -> CommandOutput:
    from . import search

    return _table_output(search.table(args.kind, args.max_n), inputs={"kind": args.kind, "max_n": args.max_n})


def _cmd_gamma(args) -> CommandOutput:
    from . import costas

    m, witness = costas.gamma(args.n)
    text = format_int_sequence(witness)
    return CommandOutput(
        lines=[f"m={m}", f"witness={text}"],
        result={"m": m, "witness": text},
        inputs={"n": args.n},
    )


def _cmd_verify(args) -> CommandOutput:
    from . import verify

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


def _check_arguments(p: _Parser) -> None:
    from .search import PROPERTIES

    p.add_argument("--property", required=True, help=" | ".join(PROPERTIES))
    p.add_argument("permutation")


def _construct_arguments(p: _Parser) -> None:
    p.add_argument("construction", choices=_CONSTRUCTIONS)
    for name, text in _CONSTRUCT_OPTIONS.items():
        p.add_argument(f"--{name}", type=int, help=text)


def _searched_arguments(p: _Parser) -> None:
    from .search import PROPERTY_FORMS

    p.add_argument("--property", required=True, help=" | ".join(PROPERTY_FORMS))
    p.add_argument("--n", type=int, required=True)


def _table_arguments(p: _Parser) -> None:
    from .search import TABLE_KINDS

    p.add_argument("--kind", choices=TABLE_KINDS, required=True)
    p.add_argument("--max-n", type=int, required=True, dest="max_n")


def _triangle_arguments(p: _Parser) -> None:
    p.add_argument("sequence")
    p.add_argument("--render", choices=("plain", "staggered"), default="plain")


def _verify_arguments(p: _Parser) -> None:
    p.add_argument("target", choices=("figure1", "examples"))
    p.add_argument("--max-n", type=int, dest="max_n")


# Each subcommand, in help order: its one-line help, its handler and the function that adds its arguments.
_SUBCOMMANDS = {
    "derive": ("derivative of a permutation", _cmd_derive,
               lambda p: p.add_argument("permutation", help="comma-separated entries, e.g. 5,2,7,4,1,6,3")),
    "integrate": ("permutation with the given derivative", _cmd_integrate,
                  lambda p: p.add_argument("derivative", help="comma-separated differences, e.g. -3,5,-3,-3,5,-3")),
    "triangle": ("difference triangle of a distinct-integer sequence", _cmd_triangle, _triangle_arguments),
    "check": ("test a permutation property", _cmd_check, _check_arguments),
    "construct": ("build a named extremal permutation", _cmd_construct, _construct_arguments),
    "enumerate": ("list all permutations with a property", _cmd_enumerate, _searched_arguments),
    "count": ("count permutations with a property", _cmd_count, _searched_arguments),
    "table": ("count table for orders 1..max-n", _cmd_table, _table_arguments),
    "gamma": ("longest Costas subpermutation of order n", _cmd_gamma,
              lambda p: p.add_argument("--n", type=int, required=True)),
    "verify": ("bundled self-checks", _cmd_verify, _verify_arguments),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="permderiv", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, handler, populate) in _SUBCOMMANDS.items():
        sub.add_parser(name, help=text, populate=populate).set_defaults(handler=handler)
    return parser


# The requests, by subcommand and verify's target, whose output is a count table: the only ones with CSV.
_CSV_REQUESTS = {("count", None), ("table", None), ("verify", "figure1")}


def _render(args, out: CommandOutput, runtime: float) -> str:
    if args.format == "text":
        return "\n".join(out.lines)
    if args.format == "csv":
        from .search import CountRow

        lines = [",".join(CountRow._fields)]
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
        if args.format == "csv" and (args.command, getattr(args, "target", None)) not in _CSV_REQUESTS:
            raise ValueError(f"--format csv is not supported for {args.command!r}")
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
