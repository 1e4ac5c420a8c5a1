"""Benchmark of permderiv: one command, four workloads, checked answers.

    python3 bench/run.py --workload exact-search --seed 1 --seconds 30 --trace 0

Runs one workload against `src/` as it stands (nothing installed) for about
`--seconds` seconds, checks every answer, and prints as its last line one
JSON object: {"correct", "attempted", "failed", "metrics"}.  With
`--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones, taken from spans the benchmark records around its calls
into each layer.  See bench/README.md.
"""
from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("exact-search", "costas-extremal", "bulk-values", "cli-mix")

# Per-layer metric -> unit.  A workload that never calls a layer reports 0 for
# it.  Times are at the reference speed; machine.slowdown, the calibration
# kernel's median time over its reference time, shows how fast the machine ran.
PER_LAYER = {
    "search.one_costas_table_s": "s",
    "search.one_costas_n10_s": "s",
    "search.costas_n9_s": "s",
    "search.costas_n9_nproc_s": "s",
    "search.speedup_nproc": "ratio",
    "search.collect_s": "s",
    "search.k_costas_s": "s",
    "search.optimize_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.accept_ratio": "ratio",
    "convexity.enumerate_convex_s": "s",
    "costas.gamma_s": "s",
    "costas.jedwab_none_s": "s",
    "costas.jedwab_found_s": "s",
    "perm_core.permutation_s": "s",
    "perm_core.derivative_s": "s",
    "perm_core.integrate_s": "s",
    "perm_core.inverse_s": "s",
    "perm_core.is_realizable_s": "s",
    "perm_core.transforms_s": "s",
    "triangle.build_s": "s",
    "triangle.distinct_through_s": "s",
    "triangle.render_s": "s",
    "costas.is_costas_s": "s",
    "costas.is_k_costas1_s": "s",
    "variation.construct_s": "s",
    "variation.measure_s": "s",
    "dpair.construct_s": "s",
    "cli.build_parser_ms": "ms",
    "cli.parse_args_ms": "ms",
    "cli.derive_ms": "ms",
    "cli.integrate_ms": "ms",
    "cli.triangle_ms": "ms",
    "cli.check_ms": "ms",
    "cli.construct_ms": "ms",
    "cli.count_ms": "ms",
    "cli.enumerate_ms": "ms",
    "cli.gamma_ms": "ms",
    "cli.json_ms": "ms",
    "cli.error_ms": "ms",
    "trace.overhead_s": "s",
    "machine.slowdown": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="small orders, for the benchmark's own tests")
    parser.add_argument("--setup-only", action="store_true", help="build the inputs, print a line and exit")
    return parser.parse_args(argv)


def build(name: str, seed: int, tiny: bool):
    import cli_mix
    import workloads

    if name == "cli-mix":
        return cli_mix.workload(seed)
    return workloads.BUILDERS[name](seed, workloads.TINY if tiny else workloads.FULL)


def per_layer(workload, run, tracer, extra: dict) -> dict[str, float]:
    import cli_mix
    import harness

    scale = run.scale
    values = dict.fromkeys(PER_LAYER, 0.0)
    times = cli_mix.layers(tracer) if workload.name == "cli-mix" else harness.layer_times(tracer)
    values.update({name: scale * value for name, value in times.items()})
    values.update(extra)
    if values["search.costas_n9_nproc_s"]:
        values["search.speedup_nproc"] = values["search.costas_n9_s"] / values["search.costas_n9_nproc_s"]
    if values["search.nodes"]:
        values["search.nodes_per_s"] = values["search.nodes"] / harness.median(run.op_times("one_costas_n10")["one_costas_n10"])
    values["trace.overhead_s"] = scale * (harness.median(run.traced_pass_times) - harness.median(run.pass_times))
    values["machine.slowdown"] = harness.median(run.calibration)
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise RuntimeError(f"spans with no per-layer metric: {sorted(unknown)}")
    return values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "permderiv" / "__init__.py").is_file():
        print(f"error: no permderiv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

    if args.setup_only:
        import workloads

        workloads.INPUTS[args.workload](args.seed, workloads.TINY if args.tiny else workloads.FULL)
        print("ready", flush=True)
        os._exit(0)  # skip freeing the inputs: set-up ends at the line above

    import harness

    workload = build(args.workload, args.seed, args.tiny)
    deadline = STARTED + args.seconds
    if args.trace:
        tracer = harness.Tracer()
        run, extra = harness.measure_traced(workload, args.seed, deadline, tracer)
        metrics = {name: (value, PER_LAYER[name]) for name, value in per_layer(workload, run, tracer, extra).items()}
        tracer.write(harness.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl")
    else:
        run = harness.measure(workload, args.seed, deadline)
        metrics = harness.end_to_end(run)
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    harness.write_result(args.workload, args.seed, args.trace, {**result, "failures": run.failures})
    for failure in run.failures:
        print(f"FAILED {failure}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
