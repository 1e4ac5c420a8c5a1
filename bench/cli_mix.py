"""The cli-mix workload: seeded requests through `cli.run(argv)` in process.

One round holds a fixed number of requests of each command, so every seed
gives the same mix and about the same cost; the seed picks the permutations,
properties, parameters and output formats.  About 5% of a round are invalid
requests, whose correct outcome is exit 2, no stdout and a one-line reason
on stderr.  Every response is parsed and compared with the benchmark's own
answer (see oracles.py).

Left out: `verify` (`verify figure1` is the exact-search table, and `verify
examples` would swamp the mix), and `count --property k-costas=-1`, which
exits 0 with a count where it should exit 2.
"""
from __future__ import annotations

import io
import itertools
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Callable

import oracles as orc
from harness import Op, Tracer, Workload, median

from permderiv import cli

ENVELOPE = {"command", "inputs", "result", "metadata"}
CHECK_PROPERTIES = (
    "costas", "one-costas", "k-costas", "convex", "mid-alternating",
    "centrosymmetric", "costas-centrosymmetric", "lipschitz", "dpair",
)
CONSTRUCTIONS = ("dpair", "min-local", "max-global", "maximin", "pi", "pi-star", "realize-shift")
# (property, order) per slot: fixed so that every seed costs about the same.
COUNT_SLOTS = (("one-costas", 7), ("costas", 7), ("k-costas", 7), ("convex", 7), ("one-costas", 6), ("costas", 6))
ENUMERATE_SLOTS = (("one-costas", 6), ("costas", 7), ("k-costas", 6), ("convex", 7))
GAMMA_ORDERS = (7, 8, 9, 10)
INVALID = (
    ["derive", "1,1,2"],
    ["integrate", "1,-1"],
    ["check", "--property", "costas", "0,2,1"],
    ["construct", "dpair", "--a", "2", "--b", "4"],
    ["count", "--property", "costas", "--n", "10"],
    ["enumerate", "--property", "one-costas", "--n", "11"],
    ["check", "--property", "nope", "1,2,3"],
    ["gamma", "--n", "0"],
    ["derive", "--format", "csv", "1,2,3"],
    ["construct", "max-global"],
    ["count", "--property", "k-costas=x", "--n", "5"],
    ["frobnicate"],
    ["triangle", "1,2,1"],
)
INVALID_PER_ROUND = 3


@dataclass
class Request:
    argv: list[str]
    command: str
    fmt: str
    # (exit code, stdout, stderr) -> the response is right
    verify: Callable[[int, str, str], bool]


def call(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def seq(values) -> str:
    return ",".join(map(str, values))


def _response(command: str, fmt: str, code: int, text_lines: list[str], result: dict, csv_lines=None):
    """A verifier for a valid request, from the benchmark's own answer."""

    def verify(got_code: int, out: str, err: str) -> bool:
        if got_code != code or err:
            return False
        if fmt == "json":
            envelope = json.loads(out)
            return set(envelope) == ENVELOPE and envelope["command"] == command and envelope["result"] == result
        if fmt == "csv":
            return out == "\n".join(csv_lines) + "\n"
        return out == "\n".join(text_lines) + "\n"

    return verify


def _invalid(code: int, out: str, err: str) -> bool:
    return code == 2 and out == "" and err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def _random_perm(rng: random.Random, n: int) -> tuple[int, ...]:
    p = list(range(1, n + 1))
    rng.shuffle(p)
    return tuple(p)


def _centrosymmetric(rng: random.Random, n: int) -> tuple[int, ...]:
    out = [0] * n
    lows = list(range(1, n // 2 + 1))
    rng.shuffle(lows)
    for i, v in enumerate(lows):
        v = v if rng.random() < 0.5 else n + 1 - v
        out[i], out[n - 1 - i] = v, n + 1 - v
    if n % 2:
        out[n // 2] = (n + 1) // 2
    return tuple(out)


def _mid_alternating(rng: random.Random, n: int) -> tuple[int, ...]:
    k = n // 2
    low, high = list(range(1, k + 1)), list(range(k + 1, n + 1))
    rng.shuffle(low)
    rng.shuffle(high)
    first, second = (high, low) if n % 2 else ((low, high) if rng.random() < 0.5 else (high, low))
    return tuple(v for pair in zip(first, second + [0]) for v in pair if v)


def _dpair_perm(a: int, b: int) -> tuple[int, ...]:
    """The perm stepping a up / b down: entry i is 1 + (i*a mod a+b)."""
    n = a + b
    return tuple((i * a) % n + 1 for i in range(n))


def _fmt(rng: random.Random, csv: bool = False) -> str:
    return rng.choice(("text", "json", "csv") if csv else ("text", "json"))


def _with_format(argv: list[str], fmt: str) -> list[str]:
    return argv[:1] + ["--format", fmt] + argv[1:] if fmt != "text" else argv


def _derive(rng):
    p = _random_perm(rng, rng.randint(3, 12))
    fmt = _fmt(rng)
    d = seq(orc.diffs(p))
    return Request(_with_format(["derive", seq(p)], fmt), "derive", fmt,
                   _response("derive", fmt, 0, [d], {"derivative": d}))


def _integrate(rng):
    p = _random_perm(rng, rng.randint(3, 12))
    fmt = _fmt(rng)
    return Request(_with_format(["integrate", seq(orc.diffs(p))], fmt), "integrate", fmt,
                   _response("integrate", fmt, 0, [seq(p)], {"permutation": seq(p)}))


def _triangle(rng):
    base = tuple(rng.sample(range(-20, 40), rng.randint(3, 9)))
    mode = rng.choice(("plain", "staggered"))
    fmt = _fmt(rng)
    rows = [base] + [orc.row(base, k) for k in range(1, len(base))]
    argv = _with_format(["triangle", seq(base), "--render", mode], fmt)

    def verify(code, out, err):
        if fmt == "json":
            return _response("triangle", fmt, 0, [], {"base": list(base), "rows": [list(r) for r in rows]})(code, out, err)
        lines = out.rstrip("\n").split("\n")
        return code == 0 and not err and [tuple(map(int, line.split())) for line in lines] == rows

    return Request(argv, "triangle", fmt, verify)


def _check(rng, prop: str):
    n = rng.randint(4, 9)
    p = _random_perm(rng, n)
    name = prop
    if prop == "k-costas":
        k = rng.randrange(n)
        name, holds = f"k-costas={k}", orc.rows_distinct(p, k)
    elif prop == "lipschitz":
        bound = rng.randint(1, n)
        name, holds = f"lipschitz={bound}", max(map(abs, orc.diffs(p))) <= bound
    elif prop == "dpair":
        a = rng.choice((1, 2, 3))
        b = rng.choice([b for b in range(a + 1, 9) if math.gcd(a, b) == 1])
        if rng.random() < 0.5:
            p = _dpair_perm(a, b) if a > 1 else tuple(range(2, b + 2)) + (1,)
        name, holds = f"dpair={a},{-b}", set(orc.diffs(p)) == {a, -b}
    elif prop == "convex":
        if rng.random() < 0.5:
            p = rng.choice(sorted(orc.convex_family(n)))
        holds = orc.is_convex(p)
    elif prop == "mid-alternating":
        if rng.random() < 0.5:
            p = _mid_alternating(rng, n)
        holds = orc.is_mid_alternating(p)
    elif prop in ("centrosymmetric", "costas-centrosymmetric"):
        if rng.random() < 0.7:
            p = _centrosymmetric(rng, n)
        holds = (orc.is_centrosymmetric if prop == "centrosymmetric" else orc.is_costas_centrosymmetric)(p)
    elif prop == "costas":
        holds = orc.is_costas(p)
    else:  # one-costas
        holds = orc.is_one_costas(p)
    fmt = _fmt(rng)
    argv = _with_format(["check", "--property", name, seq(p)], fmt)
    return Request(argv, "check", fmt, _response("check", fmt, 0 if holds else 1, ["true" if holds else "false"],
                                                 {"property": name, "holds": holds}))


@dataclass(frozen=True)
class _Extremes:
    """Exhaustive extremal values at order n (n <= oracles.BRUTE_MAX)."""

    max_global: int
    min_local_1costas: int
    min_global_1costas: int
    maximin_abs: int


def _extremes(n: int, cache: dict[int, _Extremes]) -> _Extremes:
    if n not in cache:
        absd = [list(map(abs, orc.diffs(p))) for p in orc.one_costas(n)]
        max_global = maximin = 0
        for p in orc.permutations(n):
            d = list(map(abs, orc.diffs(p)))
            max_global, maximin = max(max_global, sum(d)), max(maximin, min(d))
        cache[n] = _Extremes(max_global, min(map(max, absd)), min(map(sum, absd)), maximin)
    return cache[n]


def _construct(rng, kind: str, cache: dict):
    fmt = _fmt(rng)
    n = rng.randint(4, orc.BRUTE_MAX)
    if kind == "dpair":
        a = rng.randint(1, 9)
        b = rng.choice([b for b in range(a + 1, 16) if math.gcd(a, b) == 1])
        args = ["--a", str(a), "--b", str(b)]
    elif kind in ("pi", "pi-star"):
        args = ["--k", str(n)]
    elif kind == "realize-shift":
        s = rng.randrange(n)
        args = ["--n", str(n), "--s", str(s)]
    else:
        args = ["--n", str(n)]
    argv = _with_format(["construct", kind] + args, fmt)
    ext = _extremes(n, cache) if kind in ("min-local", "max-global", "maximin") else None

    def answer(p: tuple[int, ...]) -> dict | None:
        """The JSON result fields beyond permutation and derivative, or None if p is wrong."""
        d = orc.diffs(p)
        absd = list(map(abs, d))
        if kind == "dpair":
            a_inv = pow(a, -1, a + b)
            ok = len(p) == (a + b if a > 1 else b + 1) and set(d) == {a, -b}
            extra = {"realized_pair": f"{a},{-b}", "inverse_pair": f"{a_inv},{-(a + b - a_inv)}"}
        elif kind == "min-local":
            ok = orc.is_one_costas(p) and max(absd) == ext.min_local_1costas and sum(absd) == ext.min_global_1costas
            extra = {"local_variation": max(absd), "global_variation": sum(absd)}
        elif kind == "max-global":
            ok, extra = sum(absd) == ext.max_global, {"global_variation": sum(absd)}
        elif kind == "maximin":
            ok, extra = min(absd) == ext.maximin_abs, {"maximin_abs": ext.maximin_abs}
        elif kind == "pi":
            ok, extra = p == orc.zigzag(n), {}
        elif kind == "pi-star":
            ok, extra = p == orc.rotate90(orc.zigzag(n)), {}
        else:
            ok = p == (s + 1,) + tuple(range(1, s + 1)) + tuple(range(s + 2, n + 1))
            extra = {"sum_characteristic": sorted({0, *itertools.accumulate(d)})}
        return extra if ok else None

    def verify(code: int, out: str, err: str) -> bool:
        if code != 0 or err:
            return False
        if fmt == "text":
            lines = out.split("\n")
            if len(lines) != 3 or lines[2]:
                return False
            p, d, extra = orc.parse(lines[0]), orc.parse(lines[1]), None
        else:
            envelope = json.loads(out)
            if set(envelope) != ENVELOPE or envelope["command"] != "construct":
                return False
            result = dict(envelope["result"])
            p, d = orc.parse(result.pop("permutation")), orc.parse(result.pop("derivative"))
            extra = result
        if not orc.is_permutation(p) or d != orc.diffs(p):
            return False
        expected = answer(p)
        return expected is not None and (extra is None or extra == expected)

    return Request(argv, "construct", fmt, verify)


def _property(rng, prop: str) -> str:
    return f"k-costas={rng.randint(1, 3)}" if prop == "k-costas" else prop


def _count(rng, prop: str, n: int):
    prop = _property(rng, prop)
    fmt = _fmt(rng, csv=True)
    count, total = len(orc.filtered(prop, n)), math.factorial(n)
    frac = orc.fraction(count, total)
    argv = _with_format(["count", "--property", prop, "--n", str(n)], fmt)
    return Request(argv, "count", fmt, _response(
        "count", fmt, 0, [f"n={n} total={total} count={count} fraction={frac:.1f}"],
        {"n": n, "total": total, "count": count, "fraction": frac},
        ["n,total,count,fraction", f"{n},{total},{count},{frac:.1f}"]))


def _enumerate(rng, prop: str, n: int):
    prop = _property(rng, prop)
    fmt = _fmt(rng)
    perms = [seq(p) for p in orc.filtered(prop, n)]
    argv = _with_format(["enumerate", "--property", prop, "--n", str(n)], fmt)
    return Request(argv, "enumerate", fmt,
                   _response("enumerate", fmt, 0, perms, {"count": len(perms), "permutations": perms}))


def _gamma(rng, n: int):
    fmt = _fmt(rng)

    def verify(code: int, out: str, err: str) -> bool:
        if code != 0 or err:
            return False
        if fmt == "json":
            envelope = json.loads(out)
            if set(envelope) != ENVELOPE or envelope["command"] != "gamma":
                return False
            m, witness = envelope["result"]["m"], envelope["result"]["witness"]
        else:
            lines = out.split("\n")
            if len(lines) != 3 or lines[2] or not lines[0].startswith("m=") or not lines[1].startswith("witness="):
                return False
            m, witness = int(lines[0][2:]), lines[1][len("witness="):]
        w = orc.parse(witness)
        # Costas arrays exist at every order n <= 31, so the longest is n itself.
        return m == n and len(w) == n and orc.is_permutation(w) and orc.is_costas(w)

    return Request(_with_format(["gamma", "--n", str(n)], fmt), "gamma", fmt, verify)


def requests(seed: int) -> list[Request]:
    """One round of requests; the same composition for every seed."""
    rng = random.Random(seed)
    cache: dict[int, _Extremes] = {}
    out = [_derive(rng) for _ in range(8)]
    out += [_integrate(rng) for _ in range(6)]
    out += [_triangle(rng) for _ in range(5)]
    out += [_check(rng, prop) for prop in CHECK_PROPERTIES + tuple(rng.sample(CHECK_PROPERTIES, 3))]
    out += [_construct(rng, kind, cache) for kind in CONSTRUCTIONS + tuple(rng.sample(CONSTRUCTIONS, 2))]
    out += [_count(rng, prop, n) for prop, n in COUNT_SLOTS]
    out += [_enumerate(rng, prop, n) for prop, n in ENUMERATE_SLOTS]
    out += [_gamma(rng, n) for n in GAMMA_ORDERS]
    out += [Request(argv, "error", "text", _invalid) for argv in rng.sample(INVALID, INVALID_PER_ROUND)]
    return out


def setup_argv(seed: int) -> list[str]:
    """A trivial request in a fresh interpreter: set-up is the time to its answer."""
    rng = random.Random(seed)
    return [sys.executable, "-m", "permderiv.cli", "derive", seq(_random_perm(rng, 7))]


def workload(seed: int) -> Workload:
    ops = []
    for i, req in enumerate(requests(seed)):
        layer = "cli.error_ms" if req.command == "error" else f"cli.{req.command}_ms"
        ops.append(Op(f"r{i}", layer, lambda s, argv=req.argv: call(argv),
                      lambda r, req=req: req.verify(*r), tags={"format": req.fmt}))
    return Workload("cli-mix", ops, setup_argv(seed), instrument=(_install, _uninstall))


_original_build_parser = cli.build_parser


def _install(tracer: Tracer) -> None:
    """Put spans around `cli.build_parser` and the parser's `parse_args`."""

    def build_parser():
        span = tracer.begin("cli.build_parser")
        try:
            parser = _original_build_parser()
        finally:
            tracer.end(span)
        parser.parse_args = tracer.wrap("cli.parse_args", parser.parse_args)
        return parser

    cli.build_parser = build_parser


def _uninstall() -> None:
    cli.build_parser = _original_build_parser


def layers(tracer: Tracer) -> dict[str, float]:
    """Per-call medians in milliseconds: per command, JSON responses, errors, parser."""
    groups: dict[str, list[float]] = {}
    for s in tracer.spans:
        ms = 1000 * (s.end - s.start)
        if s.parent is None:
            groups.setdefault(s.name, []).append(ms)
            if s.attrs.get("format") == "json" and s.name != "cli.error_ms":
                groups.setdefault("cli.json_ms", []).append(ms)
        else:
            groups.setdefault(f"{s.name}_ms", []).append(ms)
    return {name: median(values) for name, values in groups.items()}
