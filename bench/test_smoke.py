"""Smoke test of the benchmark harness at a tiny size.

    python3 -m pytest bench/test_smoke.py -q

Runs every workload shrunk with ``--tiny`` through the same command line
the benchmark uses, untraced and traced, and checks the result contract,
the trace coverage, that exact work counts repeat for one seed, and that
the harness refuses to run without the library sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = ["residues.sumset.bits", "search.subsets_visited",
                "search.classes_enumerated", "intervals.minkowski_pairs"]


def run_bench(cwd: Path, workload: str, seed: int, trace: int):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    return result


def assert_metrics(result: dict, specs: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in specs}
    for spec in specs:
        assert metrics[spec["name"]]["unit"] == spec["unit"]
        assert isinstance(metrics[spec["name"]]["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_result(workload):
    result = result_of(run_bench(ROOT, workload, 3, 0))
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat(workload):
    first = result_of(run_bench(ROOT, workload, 5, 1))
    second = result_of(run_bench(ROOT, workload, 5, 1))
    assert_metrics(first, SPEC["per_layer"])
    assert first["metrics"]["trace.coverage_ratio"]["value"] >= 0.95
    repeatable = EXACT_COUNTS + [n for n in first["metrics"] if n.endswith(".calls")]
    for name in repeatable:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_fails_without_library_sources():
    work = BENCH / "work"
    work.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=work))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in SPEC["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("out", "work", "__pycache__"))
        proc = run_bench(bare, WORKLOADS[0], 1, 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
