"""The benchmark's own tests: tiny runs pass, and every checker can fail.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import cli_mix  # noqa: E402
import harness  # noqa: E402
import oracles as orc  # noqa: E402
import run as bench_run  # noqa: E402
import workloads  # noqa: E402

from permderiv import costas, perm_core  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "7",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_tiny_run_passes_its_checks(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench_run.PER_LAYER
    assert {name: unit for name, (_, unit) in harness.end_to_end(harness.Run()).items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("exact-search", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""


def test_same_seed_same_inputs():
    a = workloads.bulk_inputs(3, workloads.TINY)
    b = workloads.bulk_inputs(3, workloads.TINY)
    assert a["entries"] == b["entries"] and a["welch"] == b["welch"]
    assert [r.argv for r in cli_mix.requests(3)] == [r.argv for r in cli_mix.requests(3)]


def test_oracles_reproduce_published_counts():
    for n in range(1, 8):
        assert len(orc.filtered("costas", n)) == orc.COSTAS_COUNTS[n]
    assert orc.is_costas(orc.welch(11, 2, 3))
    assert orc.fraction(788, 5040) == 15.6


def _ops(workload):
    return {op.name: op for op in workload.ops}


def _answer(op, scratch=None):
    return op.call({} if scratch is None else scratch)


def test_exact_search_checks_reject_corrupted_answers():
    ops = _ops(workloads.exact_workload(5, workloads.TINY))
    count = _answer(ops["costas_n9"])
    assert ops["costas_n9"].check(count) and not ops["costas_n9"].check(count + 1)
    row = _answer(ops["one_costas_n10"])
    assert ops["one_costas_n10"].check(row) and not ops["one_costas_n10"].check(row._replace(count=row.count - 1))
    table = _answer(ops["one_costas_table"])
    assert not ops["one_costas_table"].check(table[:-1] + (table[-1]._replace(count=table[-1].count + 1),))
    collected = _answer(ops["collect"])
    assert ops["collect"].check(collected)
    assert not ops["collect"].check(collected[::-1])
    assert not ops["collect"].check(collected[:-1] + [perm_core.identity(len(collected[0]))])
    best = _answer(ops["optimize"])
    assert ops["optimize"].check(best) and not ops["optimize"].check((best[0], perm_core.reverse(best[1])))
    assert not ops["optimize"].check((best[0] + 1, best[1]))
    k = _answer(ops["k_costas"])
    assert ops["k_costas"].check(k) and not ops["k_costas"].check(k - 1)
    convex = _answer(ops["convex"])
    assert ops["convex"].check(convex) and not ops["convex"].check(convex - {perm_core.identity(workloads.TINY.convex_n)})


def test_costas_extremal_checks_reject_corrupted_answers():
    ops = _ops(workloads.costas_workload(5, workloads.TINY))
    n = workloads.TINY.gamma_orders[-1]
    m, witness = _answer(ops[f"gamma{n}"])
    assert ops[f"gamma{n}"].check((m, witness))
    assert not ops[f"gamma{n}"].check((m, tuple(range(1, n + 1))))  # not a Costas witness
    assert not ops[f"gamma{n}"].check((m - 1, witness[:-1]))
    found = _answer(ops["jedwab_welch0"])
    assert ops["jedwab_welch0"].check(found)
    assert ops["jedwab_identity"].check(None) and not ops["jedwab_identity"].check(found)
    (r, s), (u, v) = found.first
    off_matrix = costas.JedwabWitness(((r, s + 100), (u, v + 100)), found.second)
    assert not ops["jedwab_welch0"].check(off_matrix)
    assert not ops["jedwab_welch0"].check(None)


def test_bulk_values_checks_reject_corrupted_answers():
    ops = _ops(workloads.bulk_workload(5, workloads.TINY))
    scratch: dict = {}
    for op in workloads.bulk_workload(5, workloads.TINY).ops:
        result = op.call(scratch)
        if op.store:
            scratch[op.store] = result
        assert op.check(result), op.name
    p = _answer(ops["permutation"])
    swapped = perm_core.Permutation((p[1], p[0]) + p.entries[2:])
    for name in ("permutation", "integrate", "inverse", "reverse", "complement", "rotate90"):
        assert not ops[name].check(swapped), name
    assert not ops["derivative"].check(perm_core.derivative(swapped))
    assert not ops["is_realizable"].check(False) and not ops["is_realizable_broken"].check(True)
    assert not ops["max_global"].check(swapped) and not ops["min_local"].check(swapped)
    assert not ops["global_variation"].check(_answer(ops["global_variation"], scratch) - 1)
    assert not ops["dpair"].check(swapped)
    rendered = _answer(ops["render"], scratch).split("\n")
    rendered[1] = rendered[1].replace(rendered[1].split()[0], str(int(rendered[1].split()[0]) + 1), 1)
    assert not ops["render"].check("\n".join(rendered))
    assert not ops["distinct_through"].check(False) and not ops["is_costas"].check(False)


def _rejects(req, code: int, out: str, err: str) -> bool:
    """The harness counts a check that raises as a failed operation."""
    try:
        return not req.verify(code, out, err)
    except (KeyError, ValueError, TypeError):
        return True


def test_cli_checks_reject_corrupted_responses():
    for req in cli_mix.requests(9):
        code, out, err = cli_mix.call(req.argv)
        assert req.verify(code, out, err), req.argv
        assert _rejects(req, code ^ 3, out, err), req.argv
        if req.fmt == "json":
            envelope = json.loads(out)
            assert _rejects(req, code, json.dumps({**envelope, "extra": 1}), err), req.argv
            assert _rejects(req, code, json.dumps({**envelope, "result": {}}), err), req.argv
        elif req.command != "error":
            assert _rejects(req, code, out.replace("1", "2", 1) if "1" in out else out + "x", err), req.argv
    # The known fault left out of the mix: a negative k is accepted.
    code, out, err = cli_mix.call(["count", "--property", "k-costas=-1", "--n", "5"])
    assert not cli_mix._invalid(code, out, err)


def test_oracle_jedwab_existence_matches_the_program_on_small_orders():
    for p in orc.permutations(5):
        assert orc.mirrored_pair_exists(p) == (costas.jedwab_witness(perm_core.Permutation(p)) is not None)
