"""The timing loop shared by every workload: passes, cold set-up launches, spans.

A workload is a list of operations.  One pass calls each of them once, in
an order shuffled per pass from the seed, and times each call alone; the
answer is checked after the clock stops.  A run repeats whole passes until
its time budget would be overrun, and between passes it starts a fresh
interpreter to time set-up.

The machine this was tuned on (2 shared cores) drifts in speed by up to 2x
over seconds to minutes, and CPU time drifts with wall time, so a raw time
says more about the neighbours than about the program.  Two things make the
figures steady.  Every timing metric is a median over many samples taken
across the whole run, never one pass.  And every time is scaled to one
reference speed: a fixed pure-Python calibration kernel, chosen per workload
to resemble its code, runs between operations, CALIBRATION_SHARE of the
run's time in all, and each operation's time is divided by the median
slowdown of the kernel (its time over KERNEL_REF_S) within
CALIBRATION_WINDOW_S of the operation.  A reported second is thus a second
on a machine where the kernel takes its reference time.  The kernels are
benchmark code, so no program change can move them.
"""
from __future__ import annotations

import bisect
import json
import os
import random
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
SETUP_TIMEOUT_S = 60
MIN_PASSES = 2
# Calls a run needs before its latency percentiles are taken over every call:
# then at least ten calls lie beyond the 99th percentile.
TAIL_SAMPLES = 1000
CALIBRATION_SHARE = 0.05
CALIBRATION_WINDOW_S = 5.0


def mixed_kernel() -> int:
    """Integer arithmetic, dicts and string joining: like parsing and rendering."""
    x = 0
    for i in range(30000):
        x += i * i & 7
    counts: dict[int, int] = {}
    for i in range(8000):
        counts[i & 255] = counts.get(i & 255, 0) + 1
    return x + len(",".join(str(v) for v in range(5000)))


def search_kernel() -> int:
    """A small depth-first search over value choices, pruning on repeated differences."""
    prefix: list[int] = []

    def walk(used: int) -> int:
        if len(prefix) == 6:
            return 1
        total = 0
        for v in range(1, 7):
            if used >> v & 1:
                continue
            prefix.append(v)
            seen = set()
            ok = True
            for i in range(len(prefix) - 1):
                d = prefix[i + 1] - prefix[i]
                if d in seen:
                    ok = False
                    break
                seen.add(d)
            if ok:
                total += walk(used | 1 << v)
            prefix.pop()
        return total

    return walk(0) + walk(0)


def bulk_kernel() -> int:
    """Tuples built from generators over a long range, and a set over one."""
    base = tuple(range(1, 30001))
    steps = tuple(base[i + 1] - base[i] for i in range(len(base) - 1))
    return len(set(steps)) + sum(abs(v) for v in steps)


# Each kernel's time, in seconds, at the reference speed: about its median
# on the machine the benchmark was built on.
KERNEL_REF_S = {mixed_kernel: 0.005, search_kernel: 0.0048, bulk_kernel: 0.006}


@dataclass
class Op:
    """One timed call into the program and the check of its answer.

    `call` receives the pass's scratch dict, so an operation may read what an
    earlier one in a fixed-order pass stored there.  `check` returns True when
    the answer is right.  `layer` names the per-layer metric the call's time
    counts toward.
    """

    name: str
    layer: str
    call: Callable[[dict], Any]
    check: Callable[[Any], bool]
    store: str | None = None
    tags: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    setup_argv: list[str]
    shuffle: bool = True
    setup_launches: int = 5
    # The calibration kernel: the one whose speed drifts most like the workload's.
    kernel: Callable[[], int] = mixed_kernel
    # Called once in a traced run; returns extra per-layer values.
    trace_extra: Callable[["Tracer", "Run"], dict[str, float]] | None = None
    # (install, uninstall) hooks that put spans inside the program's calls.
    instrument: tuple[Callable[["Tracer"], None], Callable[[], None]] | None = None


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory spans; written out once when the run ends."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.request = 0
        self.passes = 0

    def begin(self, name: str, **attrs) -> int:
        parent = self._stack[-1] if self._stack else None
        attrs["pass"] = self.passes
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, self.request, attrs))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(index)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for i, s in enumerate(self.spans):
                row = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "request": s.request}
                row.update(s.attrs)
                fh.write(json.dumps(row) + "\n")


@dataclass
class Run:
    """Everything one benchmark run measured."""

    # (operation name, start, end) of each untraced call
    samples: list[tuple[str, float, float]] = field(default_factory=list)
    pass_times: list[float] = field(default_factory=list)
    traced_pass_times: list[float] = field(default_factory=list)
    # (start, end) of each cold launch, to first output
    setup_launches: list[tuple[float, float]] = field(default_factory=list)
    # Kernel times as multiples of the kernel's reference time
    calibration: list[float] = field(default_factory=list)
    calibration_at: list[float] = field(default_factory=list)
    calibration_busy: float = 0.0
    started: float = field(default_factory=time.perf_counter)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def calibrate(self, kernel: Callable[[], int]) -> None:
        """Time the calibration kernel until it has taken CALIBRATION_SHARE of the run.

        Called between operations, so after a long operation a burst of
        samples follows, and every part of the run is sampled about evenly.
        """
        now = time.perf_counter()
        while not self.calibration or self.calibration_busy < CALIBRATION_SHARE * (now - self.started):
            kernel()
            ended = time.perf_counter()
            self.calibration.append((ended - now) / KERNEL_REF_S[kernel])
            self.calibration_at.append(now)
            self.calibration_busy += ended - now
            now = ended

    @property
    def scale(self) -> float:
        """Multiplier from this run's seconds to seconds at the reference speed."""
        return 1 / median(self.calibration)

    def local_scale(self, start: float, end: float) -> float:
        """The same multiplier from the kernel times around one operation.

        The median of the samples taken within CALIBRATION_WINDOW_S of the
        operation: single samples jitter by about 20% from one to the next,
        while the speed drifts over tens of seconds.
        """
        lo = bisect.bisect_left(self.calibration_at, start - CALIBRATION_WINDOW_S)
        hi = bisect.bisect_right(self.calibration_at, end + CALIBRATION_WINDOW_S)
        return 1 / median(self.calibration[lo:hi] or self.calibration)

    def op_times(self, name: str | None = None) -> dict[str, list[float]]:
        """Each operation's times at the reference speed, in call order."""
        out: dict[str, list[float]] = {}
        for op, start, end in self.samples:
            if name is None or op == name:
                out.setdefault(op, []).append((end - start) * self.local_scale(start, end))
        return out

    def record(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{name}: {detail or 'wrong answer'}")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: int) -> float:
    """The q-th percentile, interpolated between the nearest samples."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def time_launch(argv: list[str]) -> float:
    """Seconds from spawning a fresh interpreter to its first line of output."""
    started = time.perf_counter()
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True
    )
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait(timeout=SETUP_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if code != 0 or not line:
        raise RuntimeError(f"set-up launch {argv} exited {code}")
    return elapsed


def run_pass(workload: Workload, run: Run, rng: random.Random, tracer: Tracer | None) -> float:
    """Call every operation once; returns the summed call time."""
    ops = list(workload.ops)
    if workload.shuffle:
        rng.shuffle(ops)
    scratch: dict = {}
    total = 0.0
    for op in ops:
        run.calibrate(workload.kernel)
        if tracer is not None:
            tracer.request += 1
        started = time.perf_counter()
        try:
            if tracer is None:
                result = op.call(scratch)
            else:
                span = tracer.begin(op.layer, op=op.name, **op.tags)
                try:
                    result = op.call(scratch)
                finally:
                    tracer.end(span)
        except Exception as exc:  # a raising call is a failed operation, not a crashed run
            total += time.perf_counter() - started
            run.record(op.name, False, f"{type(exc).__name__}: {exc}")
            continue
        ended = time.perf_counter()
        total += ended - started
        if tracer is None:
            run.samples.append((op.name, started, ended))
        if op.store:
            scratch[op.store] = result
        try:
            ok = bool(op.check(result))
        except Exception as exc:  # a malformed answer fails its check
            ok = False
            run.record(op.name, ok, f"check raised {type(exc).__name__}: {exc}")
            continue
        run.record(op.name, ok)
    return total


def _launch(workload: Workload, run: Run) -> None:
    run.calibrate(workload.kernel)
    started = time.perf_counter()
    run.setup_launches.append((started, started + time_launch(workload.setup_argv)))


def measure(workload: Workload, seed: int, deadline: float) -> Run:
    """Untraced passes interleaved with cold set-up launches, until the deadline."""
    rng = random.Random(seed)
    run = Run()
    while True:
        started = time.perf_counter()
        run.pass_times.append(run_pass(workload, run, rng, None))
        if len(run.setup_launches) < workload.setup_launches:
            _launch(workload, run)
        cycle = time.perf_counter() - started
        launch = median(end - start for start, end in run.setup_launches)
        owed = (workload.setup_launches - len(run.setup_launches)) * launch
        # Start another pass only when it and the launches still owed are
        # expected to end by the deadline give or take half a pass, so runs
        # overrun their budget by little; but take at least MIN_PASSES.
        if len(run.pass_times) >= MIN_PASSES and time.perf_counter() + cycle / 2 + owed > deadline:
            break
    while len(run.setup_launches) < workload.setup_launches:
        _launch(workload, run)
    run.calibrate(workload.kernel)
    return run


def measure_traced(workload: Workload, seed: int, deadline: float, tracer: Tracer) -> tuple[Run, dict]:
    """Untraced and traced passes in turn; spans only in the traced ones."""
    rng = random.Random(seed)
    run = Run()
    extra: dict[str, float] = {}
    if workload.trace_extra is not None:
        extra = workload.trace_extra(tracer, run)
    while True:
        started = time.perf_counter()
        run.pass_times.append(run_pass(workload, run, rng, None))
        if workload.instrument is not None:
            workload.instrument[0](tracer)
        tracer.passes += 1
        try:
            run.traced_pass_times.append(run_pass(workload, run, rng, tracer))
        finally:
            if workload.instrument is not None:
                workload.instrument[1]()
        cycle = time.perf_counter() - started
        if time.perf_counter() + cycle / 2 > deadline:
            break
    run.calibrate(workload.kernel)
    return run, extra


def end_to_end(run: Run) -> dict[str, tuple[float, str]]:
    """Metrics a user sees: pass time, set-up, memory and per-operation latency.

    Times are at the reference speed (see the module docstring).
    """
    op_times = run.op_times()
    latencies = [t for times in op_times.values() for t in times]
    requests_per_s = len(latencies) / sum(latencies) if latencies else 0.0
    if len(latencies) < TAIL_SAMPLES:
        # Too few calls for a tail: each kind of call counts once, at its
        # median, so p99 is the latency of the slowest kind of call.
        latencies = [median(times) for times in op_times.values()]
    return {
        # Each operation's median over the run's passes, summed over one pass:
        # a median pass that a slow spell over part of one pass cannot move.
        "wall_s": (sum(median(t) for t in op_times.values()), "s"),
        "setup_s": (median((end - start) * run.local_scale(start, end) for start, end in run.setup_launches), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "requests_per_s": (requests_per_s, "1/s"),
        "request_p50_ms": (1000 * median(latencies), "ms"),
        "request_p99_ms": (1000 * percentile(latencies, 99), "ms"),
    }


def layer_times(tracer: Tracer) -> dict[str, float]:
    """Per traced pass, the time in each layer's top-level spans; median over passes."""
    per_pass: dict[str, dict[int, float]] = {}
    for s in tracer.spans:
        if s.parent is None:
            passes = per_pass.setdefault(s.name, {})
            passes[s.attrs["pass"]] = passes.get(s.attrs["pass"], 0.0) + (s.end - s.start)
    return {name: median(passes.values()) for name, passes in per_pass.items()}


def write_result(workload: str, seed: int, trace: int, payload: dict) -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(payload, indent=1))

