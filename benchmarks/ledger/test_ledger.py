"""Smoke test of the performance ledger.

Runs every workload in quick mode (1/10 size, 1+2 rounds), untraced on
seeds 0-2 and traced on seed 0, and checks that each run passes its
output checks and prints exactly the metrics ``BENCHMARK.json``
declares.  Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ledger/test_ledger.py -q

The tier-1 suite does not collect it (``testpaths = ["tests"]``).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def run_ledger(*args: str, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "ledger" / "run.py"), *args],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=300,
    )


def assert_declared_metrics(proc, workload: str, declared: list) -> dict:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["correct"] and summary["failed"] == 0 and summary["attempted"] >= 1
    printed = [line.split(" ") for line in lines[:-1]]
    assert [p[0] for p in printed] == [workload] * len(declared)
    assert [p[1] for p in printed] == [d["name"] for d in declared]
    assert [p[3] for p in printed] == [d["unit"] for d in declared]
    assert {k: v["unit"] for k, v in summary["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared
    }
    return {k: v["value"] for k, v in summary["metrics"].items()}


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_run_prints_end_to_end_metrics(workload, seed):
    proc = run_ledger("--workload", workload, "--seed", str(seed), "--quick")
    values = assert_declared_metrics(proc, workload, DECLARED["end_to_end"])
    assert all(v > 0 for v in values.values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_quick_traced_run_prints_layer_metrics(workload, tmp_path):
    proc = run_ledger("--workload", workload, "--quick", "--trace", "--out", str(tmp_path))
    values = assert_declared_metrics(proc, workload, DECLARED["per_layer"])
    # Self times partition the traced wall time (within 2%).
    assert 0.98 <= values["trace.coverage_frac"] <= 1.0
    spans = json.loads((tmp_path / f"{workload}-seed0.spans.json").read_text())
    assert spans["samples"] and not spans["missing_entry_points"]
    assert json.loads((tmp_path / f"{workload}-seed0.trace.json").read_text())["traceEvents"]


def test_compare_accepts_identical_result_sets(tmp_path):
    result = tmp_path / "quick.json"
    proc = run_ledger("--workload", "serve_chaos", "--quick", "--json", str(result))
    assert proc.returncode == 0, proc.stderr
    proc = subprocess.run(
        [sys.executable, str(HERE / "compare.py"), str(result), str(result)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "within-bound" in proc.stdout and "identical" in proc.stdout


def test_fails_without_the_program(tmp_path):
    """With only BENCHMARK.json and the benchmark's own files, a run
    exits non-zero and prints no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(
        HERE, tmp_path / "benchmarks" / "ledger",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    proc = run_ledger("--workload", "serve_chaos", "--quick", root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
