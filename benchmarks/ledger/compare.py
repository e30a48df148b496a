"""Compare two ledger result sets, metric by metric, against the bounds.

Usage (from the repository root)::

    python3 benchmarks/ledger/compare.py BASE NEW

BASE and NEW are result files written by ``run.py --json``, or
directories of them.  For each (workload, metric) the table gives each
side's median and quartiles over its samples: the per-run values when
a side holds several runs of the workload, else the rounds of its one
run.  The verdict uses the metric's ``bound`` from ``BENCHMARK.json``
(a share of BASE's median):

* ``unresolved``   — either side's quartile spread exceeds the bound;
* ``worse``        — NEW's median is worse than BASE's by more than it;
* ``better``       — NEW's median is better by more than it;
* ``within-bound`` — otherwise.

Exact outputs (the simulated and virtual-time results, and the digest
of the whole result) are compared for every (workload, seed) both sides
ran, and must be identical.  Exits 1 if any metric is ``worse`` or any
exact output changed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parents[2]


def load_runs(path: Path) -> List[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = []
    for f in files:
        for result in json.loads(f.read_text())["workloads"].values():
            runs.append(result)
    return runs


def samples(runs: List[dict], workload: str, metric: str) -> List[float]:
    mine = [r for r in runs if r["workload"] == workload and metric in r["stats"]]
    if len(mine) == 1:
        return mine[0]["stats"][metric]["values"]
    return [r["stats"][metric]["median"] for r in mine]


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base: List[float], new: List[float], better: str, bound: float) -> Tuple[str, float]:
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    change = (n_med - b_med) / b_med
    gain = change if better == "higher" else -change
    if max(b_q3 - b_q1, n_q3 - n_q1) / b_med > bound:
        return "unresolved", change
    if gain < -bound:
        return "worse", change
    if gain > bound:
        return "better", change
    return "within-bound", change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    declared = json.loads(args.benchmark.read_text())
    base, new = load_runs(args.base), load_runs(args.new)
    workloads = [
        w["name"] for w in declared["workloads"]
        if any(r["workload"] == w["name"] for r in base)
        and any(r["workload"] == w["name"] for r in new)
    ]

    failed = False
    print(f"{'workload':16s} {'metric':12s} {'base median [q1, q3]':>38s} "
          f"{'new median [q1, q3]':>38s} {'change':>8s}  verdict")
    for workload in workloads:
        for m in declared["end_to_end"]:
            b, n = samples(base, workload, m["name"]), samples(new, workload, m["name"])
            if not b or not n:
                continue
            result, change = verdict(b, n, m["better"], m["bound"])
            failed |= result == "worse"
            cols = []
            for values in (b, n):
                q1, med, q3 = quartiles(values)
                cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(values)}")
            print(f"{workload:16s} {m['name']:12s} {cols[0]:>38s} {cols[1]:>38s} "
                  f"{change:+8.2%}  {result} (bound {m['bound']:.0%})")

    print()
    print("exact outputs (must be identical):")
    for workload in workloads:
        base_by_seed = {r["seed"]: r for r in base if r["workload"] == workload}
        for r in new:
            reference = base_by_seed.get(r["seed"])
            if r["workload"] != workload or reference is None:
                continue
            same = r["outputs"] == reference["outputs"] and r["digest"] == reference["digest"]
            failed |= not same
            outputs = ", ".join(f"{k}={v['value']!r}" for k, v in reference["outputs"].items())
            print(f"  {workload} seed {r['seed']}: {'identical' if same else 'CHANGED'} ({outputs})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
