"""The exact-search, costas-extremal and bulk-values workloads.

Each workload is built in two steps.  `*_inputs(seed)` makes the
program-side inputs, and is all that a cold set-up launch runs.  `*_workload`
adds the benchmark's own expected answers, computed apart from the program,
and the operations of one pass.
"""
from __future__ import annotations

import math
import operator
import os
import random
import sys
from dataclasses import dataclass, replace

import oracles as orc
from harness import ROOT, Op, Run, Tracer, Workload, bulk_kernel, search_kernel

from permderiv import convexity, costas, dpair, perm_core, search, triangle, variation

NPROC = len(os.sched_getaffinity(0))
SMALL_REPEATS = 3


@dataclass(frozen=True)
class Sizes:
    """Orders used by the workloads; TINY shrinks them for the benchmark's tests."""

    one_costas_n: int = 10
    costas_n: int = 9
    brute_n: int = 8
    convex_n: int = 48
    gamma_orders: tuple[int, ...] = (13, 14, 15)
    jedwab_identity_n: int = 50
    welch_primes: tuple[int, ...] = (31, 37, 41, 43, 47, 53, 59, 61)
    bulk_n: int = 10**6
    triangle_prime: int = 2003
    random_small_n: int = 2000


FULL = Sizes()
TINY = Sizes(
    one_costas_n=7,
    costas_n=6,
    brute_n=6,
    convex_n=10,
    gamma_orders=(6, 7),
    jedwab_identity_n=8,
    welch_primes=(11, 13),
    bulk_n=2000,
    triangle_prime=53,
    random_small_n=40,
)


def setup_argv(name: str, seed: int, sizes: Sizes) -> list[str]:
    argv = [sys.executable, str(ROOT / "bench" / "run.py"), "--setup-only", "--workload", name, "--seed", str(seed)]
    return argv + (["--tiny"] if sizes is TINY else [])


# --- exact-search ---------------------------------------------------------


def exact_inputs(seed: int, sizes: Sizes = FULL) -> dict:
    rng = random.Random(seed)
    n = sizes.brute_n
    weights = tuple(rng.randint(-9, 9) for _ in range(n))
    objective = lambda t: sum(map(operator.mul, weights, t))  # noqa: E731
    direction = rng.choice(("max", "min"))
    k = rng.choice((2, 3))
    return {
        "k": k,
        "objective": objective,
        "direction": direction,
        "collect": search.SearchSpec(n=n, prefix_ok=search.costas_prefix_ok, mode="collect"),
        "k_costas": search.SearchSpec(n=n, prefix_ok=search.k_costas_prefix_ok(k)),
        "optimize": search.SearchSpec(
            n=n, prefix_ok=search.one_costas_prefix_ok, mode="optimize", objective=objective, direction=direction
        ),
    }


def _count_row_ok(row, n: int, count: int) -> bool:
    total = math.factorial(n)
    return tuple(row) == (n, total, count, orc.fraction(count, total))


def _one_costas_count(n: int) -> int:
    return orc.ONE_COSTAS_FIGURE1[n] if n in orc.ONE_COSTAS_FIGURE1 else len(orc.one_costas(n))


def _collect_ok(perms, expected: tuple[tuple[int, ...], ...]) -> bool:
    entries = [p.entries for p in perms]
    ascending = all(a < b for a, b in zip(entries, entries[1:]))
    return ascending and all(orc.is_costas(e) for e in entries) and tuple(entries) == expected


def exact_workload(seed: int, sizes: Sizes = FULL) -> Workload:
    inp = exact_inputs(seed, sizes)
    n1, n9, nb = sizes.one_costas_n, sizes.costas_n, sizes.brute_n
    table_n = n1 - 1
    table_counts = {n: _one_costas_count(n) for n in range(1, table_n + 1)}
    costas_count = orc.COSTAS_COUNTS[n9]
    collected = orc.filtered("costas", nb)
    if len(collected) != orc.COSTAS_COUNTS[nb]:
        raise RuntimeError("the n!-filter disagrees with OEIS A008404")
    k_count = len(orc.filtered(f"k-costas={inp['k']}", nb))
    value, witness = orc.best(orc.one_costas(nb), inp["objective"], inp["direction"])
    convex = orc.convex_family(sizes.convex_n)

    def table_ok(rows) -> bool:
        return len(rows) == table_n and all(_count_row_ok(r, r.n, table_counts[r.n]) for r in rows)

    def convex_ok(perms) -> bool:
        entries = {p.entries for p in perms}
        return all(orc.is_convex(e) for e in entries) and entries == convex

    small = [
        Op("collect", "search.collect_s",
           lambda s: search.enumerate(inp["collect"], workers=1), lambda r: _collect_ok(r, collected)),
        Op("collect_nproc", "search.collect_s",
           lambda s: search.enumerate(inp["collect"], workers=NPROC), lambda r: _collect_ok(r, collected)),
        Op("k_costas", "search.k_costas_s",
           lambda s: search.enumerate(inp["k_costas"]), lambda r: r == k_count),
        Op("optimize", "search.optimize_s",
           lambda s: search.enumerate(inp["optimize"]),
           lambda r: r is not None and (r[0], r[1].entries) == (value, witness)),
    ]
    # The small searches run SMALL_REPEATS times a pass, so that the median
    # call latency sits among many samples of similar calls rather than on
    # the border between two kinds of call seen once a pass each.
    ops = [replace(op, name=f"{op.name}.{i}" if i else op.name) for op in small for i in range(SMALL_REPEATS)] + [
        Op("one_costas_table", "search.one_costas_table_s",
           lambda s: search.table("one-costas", table_n), table_ok),
        Op("one_costas_n10", "search.one_costas_n10_s",
           lambda s: search.count_one_costas(n1), lambda r: _count_row_ok(r, n1, _one_costas_count(n1))),
        Op("costas_n9", "search.costas_n9_s",
           lambda s: search.count_costas(n9, workers=1), lambda r: r == costas_count),
        Op("costas_n9_nproc", "search.costas_n9_nproc_s",
           lambda s: search.count_costas(n9, workers=NPROC), lambda r: r == costas_count),
        Op("convex", "convexity.enumerate_convex_s",
           lambda s: convexity.enumerate_convex(sizes.convex_n), convex_ok),
    ]

    def count_nodes(tracer: Tracer, run: Run) -> dict[str, float]:
        """Walk the order-n1 one-Costas tree once with a counting predicate."""
        checked = accepted = 0

        def counted(prefix) -> bool:
            nonlocal checked, accepted
            checked += 1
            ok = search.one_costas_prefix_ok(prefix)
            accepted += ok
            return ok

        count = search.enumerate(search.SearchSpec(n=n1, prefix_ok=counted))
        run.record("count_nodes", count == _one_costas_count(n1))
        return {"search.nodes": checked, "search.accept_ratio": accepted / checked}

    return Workload(
        "exact-search", ops, setup_argv("exact-search", seed, sizes), trace_extra=count_nodes, kernel=search_kernel
    )


# --- costas-extremal ------------------------------------------------------


def costas_inputs(seed: int, sizes: Sizes = FULL) -> dict:
    rng = random.Random(seed)
    welch = []
    for p in rng.sample(sizes.welch_primes, 2):
        g = rng.choice(orc.primitive_roots(p))
        welch.append(perm_core.Permutation(orc.welch(p, g, rng.randrange(p - 1))))
    return {"identity": perm_core.identity(sizes.jedwab_identity_n), "welch": welch}


def costas_workload(seed: int, sizes: Sizes = FULL) -> Workload:
    inp = costas_inputs(seed, sizes)
    if orc.mirrored_pair_exists(inp["identity"].entries) or not all(
        orc.mirrored_pair_exists(w.entries) for w in inp["welch"]
    ):
        raise RuntimeError("the displacement-vector search disagrees with the workload's premise")

    def gamma_ok(n: int):
        return lambda r: r[0] == n and len(r[1]) == n and orc.is_permutation(r[1]) and orc.is_costas(r[1])

    ops = [
        Op(f"gamma{n}", "costas.gamma_s", lambda s, n=n: costas.gamma(n), gamma_ok(n))
        for n in sizes.gamma_orders
    ]
    ops.append(Op("jedwab_identity", "costas.jedwab_none_s",
                  lambda s: costas.jedwab_witness(inp["identity"]), lambda r: r is None))
    for i, w in enumerate(inp["welch"]):
        ops.append(Op(f"jedwab_welch{i}", "costas.jedwab_found_s",
                      lambda s, w=w: costas.jedwab_witness(w),
                      lambda r, w=w: r is not None and orc.is_jedwab_witness(w.entries, r)))
    return Workload("costas-extremal", ops, setup_argv("costas-extremal", seed, sizes), kernel=search_kernel)


# --- bulk-values ----------------------------------------------------------


def bulk_inputs(seed: int, sizes: Sizes = FULL) -> dict:
    rng = random.Random(seed)
    n = sizes.bulk_n
    entries = list(range(1, n + 1))
    rng.shuffle(entries)
    entries = tuple(entries)
    diffs = orc.diffs(entries)
    j = rng.randrange(len(diffs))
    broken = diffs[:j] + (-diffs[j],) + diffs[j + 1:]
    small = list(range(1, sizes.random_small_n + 1))
    rng.shuffle(small)
    p = sizes.triangle_prime
    a = rng.randrange(n // 10, n // 2)
    while math.gcd(a, n - a) != 1:
        a += 1
    return {
        "entries": entries,
        "perm": perm_core.Permutation(entries),
        "diffs": diffs,
        "broken": broken,
        "welch": perm_core.Permutation(orc.welch(p, rng.choice(orc.primitive_roots(p)), rng.randrange(p - 1))),
        "small": perm_core.Permutation(tuple(small)),
        "dpair_a": a,
    }


def _triangle_ok(t, base: tuple[int, ...]) -> bool:
    m = len(base)
    if len(t.rows) != m or t.rows[0] != base:
        return False
    return all(t.rows[k] == orc.row(base, k) for k in range(1, m))


def _render_ok(text: str, base: tuple[int, ...]) -> bool:
    """One line per row; a few rows, first and last among them, parsed back."""
    lines = text.split("\n")
    m = len(base)
    return len(lines) == m and all(tuple(map(int, lines[k].split())) == orc.row(base, k) for k in {0, 1, m // 2, m - 1})


def bulk_workload(seed: int, sizes: Sizes = FULL) -> Workload:
    inp = bulk_inputs(seed, sizes)
    n = sizes.bulk_n
    e = inp["entries"]
    P = inp["perm"]
    inv = orc.inverse(e)
    realizable = orc.integrate(inp["diffs"]) is not None
    broken_realizable = orc.integrate(inp["broken"]) is not None
    w = inp["welch"].entries
    small_one_costas = orc.is_one_costas(inp["small"].entries)
    a = inp["dpair_a"]
    b = n - a

    def abs_diffs(p) -> list[int]:
        return list(map(abs, orc.diffs(p.entries)))

    def min_local_ok(p) -> bool:
        d = orc.diffs(p.entries)
        return len(set(d)) == n - 1 and max(map(abs, d)) == (n + 1) // 2 and sum(map(abs, d)) == n * n // 4

    ops = [
        Op("permutation", "perm_core.permutation_s", lambda s: perm_core.Permutation(e), lambda r: r.entries == e),
        Op("derivative", "perm_core.derivative_s", lambda s: perm_core.derivative(P), lambda r: r.diffs == inp["diffs"]),
        Op("integrate", "perm_core.integrate_s", lambda s: perm_core.integrate(inp["diffs"]), lambda r: r.entries == e),
        Op("inverse", "perm_core.inverse_s", lambda s: perm_core.inverse(P), lambda r: r.entries == inv),
        Op("is_realizable", "perm_core.is_realizable_s",
           lambda s: perm_core.is_realizable(inp["diffs"]), lambda r: r is realizable),
        Op("is_realizable_broken", "perm_core.is_realizable_s",
           lambda s: perm_core.is_realizable(inp["broken"]), lambda r: r is broken_realizable),
        Op("reverse", "perm_core.transforms_s", lambda s: perm_core.reverse(P), lambda r: r.entries == e[::-1]),
        Op("complement", "perm_core.transforms_s",
           lambda s: perm_core.complement(P), lambda r: all(map(operator.eq, map(operator.add, r.entries, e), [n + 1] * n))),
        Op("rotate90", "perm_core.transforms_s", lambda s: perm_core.rotate90(P), lambda r: r.entries == inv[::-1]),
        Op("max_global", "variation.construct_s", lambda s: variation.construct_max_global(n),
           lambda r: sum(abs_diffs(r)) == n * n // 2 - 1, store="max_global"),
        Op("min_local", "variation.construct_s", lambda s: variation.construct_min_local_1costas(n),
           min_local_ok, store="min_local"),
        Op("maximin", "variation.construct_s", lambda s: variation.construct_maximin_abs(n),
           lambda r: min(abs_diffs(r)) == n // 2),
        Op("local_variation", "variation.measure_s",
           lambda s: variation.local_variation(s["min_local"]), lambda r: r == (n + 1) // 2),
        Op("global_variation", "variation.measure_s",
           lambda s: variation.global_variation(s["max_global"]), lambda r: r == n * n // 2 - 1),
        Op("dpair", "dpair.construct_s", lambda s: dpair.construct_dpair(a, b),
           lambda r: r.n == n and set(orc.diffs(r.entries)) == {a, -b}),
        Op("triangle_build", "triangle.build_s", lambda s: triangle.build(w),
           lambda r: _triangle_ok(r, w), store="triangle"),
        Op("distinct_through", "triangle.distinct_through_s",
           lambda s: triangle.distinct_through(s["triangle"], len(w) - 1), lambda r: r is True),
        Op("render", "triangle.render_s", lambda s: triangle.render(s["triangle"]), lambda r: _render_ok(r, w)),
        Op("is_costas", "costas.is_costas_s", lambda s: costas.is_costas(inp["welch"]), lambda r: r is True),
        Op("is_k_costas1", "costas.is_k_costas1_s",
           lambda s: costas.is_k_costas(inp["small"], 1), lambda r: r is small_one_costas),
    ]
    # Three set-up launches, not five: each takes about 2 s of the run.
    return Workload(
        "bulk-values", ops, setup_argv("bulk-values", seed, sizes), shuffle=False, setup_launches=3, kernel=bulk_kernel
    )


INPUTS = {"exact-search": exact_inputs, "costas-extremal": costas_inputs, "bulk-values": bulk_inputs}
BUILDERS = {"exact-search": exact_workload, "costas-extremal": costas_workload, "bulk-values": bulk_workload}
