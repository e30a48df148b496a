"""Performance ledger: host-time throughput of sim, serve, chaos and fleet+ops.

Usage (from the repository root)::

    python3 benchmarks/ledger/run.py [--workload NAME] [--seed N] [--seconds S]
                                     [--trace [0|1]] [--quick] [--json PATH]
                                     [--out DIR]

Each workload runs in its own fresh, single-threaded subprocess (the
serve "clients" are asyncio coroutines on one thread).  A run does one
discarded warm round at a tenth of the size, then timed rounds until
at least 5 have run (2 with ``--quick``) and their timed sections add
up to ``--seconds``.  A round times its set-up and its timed section
separately (see ``workloads.py``).

stdout gets one ``workload metric value unit`` line per metric, then,
as its last line, one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Untraced runs report the
``end_to_end`` metrics of ``BENCHMARK.json``; ``--trace`` runs report
its ``per_layer`` metrics, from paired untraced/traced rounds, and
write their spans under ``--out``.  Progress, the exact simulated
outputs and check results go to stderr; ``--json`` writes everything.

Every round's outputs are checked (``workloads.py``) and must be
byte-identical across rounds.  A failed check marks the run incorrect
and exits 1.  ``--quick`` runs every workload at 1/10 size.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

MIN_ROUNDS = 5
QUICK_MIN_ROUNDS = 2
QUICK_DIVISOR = 10
#: the warm round runs at this fraction of the timed rounds' size
WARM_DIVISOR = 10
#: no new round starts after this much wall time (keeps a run < 180 s)
ROUND_DEADLINE_S = 110.0
WORKER_TIMEOUT_S = 170.0


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run only this workload (default: all)")
    parser.add_argument(
        "--seed", type=int, default=0, help="seed of the request/trace generator"
    )
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help="keep adding timed rounds until their timed sections add up to this",
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1 (or bare --trace): report per-layer metrics from traced rounds",
    )
    parser.add_argument("--quick", action="store_true", help="1/10 size, 1+2 rounds")
    parser.add_argument("--json", type=Path, help="write the full result set here")
    parser.add_argument(
        "--out", type=Path, default=HERE / "out",
        help="directory for the traced run's span files",
    )
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# --- parent: one subprocess per workload ---------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    # SIGTERM unwinds like Ctrl-C: subprocess.run then kills and reaps
    # the running worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in declared["workloads"]]
    if args.workload is not None and args.workload not in names:
        log(f"unknown workload {args.workload!r}; choose from {names}")
        return 2
    metrics_decl = declared["per_layer" if args.trace else "end_to_end"]

    results: Dict[str, dict] = {}
    for name in [args.workload] if args.workload else names:
        result = spawn(name, args)
        if result is None:
            return 1
        declared_units = {m["name"]: m["unit"] for m in metrics_decl}
        reported_units = {k: v["unit"] for k, v in result["metrics"].items()}
        if reported_units != declared_units:
            mismatch = set(declared_units.items()) ^ set(reported_units.items())
            log(f"{name}: metrics differ from BENCHMARK.json: {sorted(mismatch)}")
            return 1
        results[name] = result

    summary_metrics = {}
    for name, result in results.items():
        for decl in metrics_decl:
            value = result["metrics"][decl["name"]]["value"]
            print(f"{name} {decl['name']} {value!r} {decl['unit']}")
            key = decl["name"] if len(results) == 1 else f"{name}.{decl['name']}"
            summary_metrics[key] = {"value": value, "unit": decl["unit"]}
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "quick": args.quick,
            "workloads": results,
        }
        args.json.write_text(json.dumps(payload, indent=1) + "\n")
    correct = all(r["correct"] for r in results.values())
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": summary_metrics,
            }
        )
    )
    return 0 if correct else 1


def spawn(name: str, args: argparse.Namespace) -> Optional[dict]:
    """Run one workload in a fresh interpreter; its last stdout line is
    its result.  Returns None when the worker failed to produce one."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--worker", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--out", str(args.out),
    ]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        log(f"{name}: worker exceeded {WORKER_TIMEOUT_S:.0f} s and was stopped")
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log(f"{name}: worker exited {proc.returncode} without a result")
        return None
    return json.loads(lines[-1])


# --- worker: the rounds of one workload ------------------------------------------------


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        raise SystemExit(f"cannot import repro from {src}: {exc}")
    if Path(repro.__file__).resolve().parents[1] != src.resolve():
        raise SystemExit(f"repro imported from {repro.__file__}, not from {src}")


def run_round(workload, seed: int, divisor: int, keep: bool = False) -> dict:
    """Set up and time one round; check its outputs outside the clock."""
    from workloads import digest

    gc.collect()
    start = time.perf_counter()
    prep = workload.setup(seed, divisor)
    mid = time.perf_counter()
    result = prep.call()
    end = time.perf_counter()
    outputs = workload.outputs(prep, result)
    record = {
        "setup_s": mid - start,
        "timed_s": end - mid,
        "gen_s": prep.gen_s,
        "ops": prep.ops,
        "ops_per_s": prep.ops / (end - mid),
        "outputs": {k: {"value": v, "unit": u} for k, (v, u) in outputs.items()},
        "digest": digest(result),
        "failures": workload.checks(prep, result),
    }
    if keep:
        record["counters"] = workload.counters(prep, result)
    return record


def spread(values: List[float]) -> dict:
    """Median, quartiles and count of one metric's samples."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "values": values}


def check_rounds(rounds: List[dict]) -> List[str]:
    """Per-round check failures, plus any output that moved between rounds."""
    failures = [f for r in rounds for f in r["failures"]]
    first = rounds[0]
    for i, r in enumerate(rounds[1:], start=1):
        if r["digest"] != first["digest"] or r["outputs"] != first["outputs"]:
            failures.append(f"round {i} outputs differ from round 0")
    return failures


def worker(args: argparse.Namespace) -> int:
    import_repro()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.worker]
    divisor = QUICK_DIVISOR if args.quick else 1
    started = time.perf_counter()
    run_round(workload, args.seed, divisor * WARM_DIVISOR)  # warm, discarded
    log(f"{workload.name}: warm round done ({time.perf_counter() - started:.1f} s)")
    if args.trace:
        result = traced_rounds(workload, args, divisor, started)
    else:
        result = timed_rounds(workload, args, divisor, started)
    for failure in result["failures"]:
        log(f"{workload.name}: CHECK FAILED: {failure}")
    for name, out in result["outputs"].items():
        log(f"{workload.name}: output {name} = {out['value']!r} {out['unit']}")
    print(json.dumps(result))
    return 0


def _result(workload, args, rounds: List[dict], failures: List[str], metrics, stats) -> dict:
    failed_ops = sum(r["ops"] for r in rounds if r["failures"])
    if failures and not failed_ops:
        failed_ops = sum(r["ops"] for r in rounds)
    return {
        "workload": workload.name,
        "seed": args.seed,
        "correct": not failures,
        "attempted": sum(r["ops"] for r in rounds),
        "failed": failed_ops,
        "failures": failures,
        "metrics": metrics,
        "stats": stats,
        "outputs": rounds[0]["outputs"],
        "digest": rounds[0]["digest"],
        "rounds": [{k: v for k, v in r.items() if k != "counters"} for r in rounds],
    }


def timed_rounds(workload, args, divisor: int, started: float) -> dict:
    min_rounds = QUICK_MIN_ROUNDS if args.quick else MIN_ROUNDS
    rounds: List[dict] = []
    while len(rounds) < min_rounds or (
        sum(r["timed_s"] for r in rounds) < args.seconds
        and time.perf_counter() - started < ROUND_DEADLINE_S
    ):
        rounds.append(run_round(workload, args.seed, divisor))
        r = rounds[-1]
        log(
            f"{workload.name}: round {len(rounds)} set-up {r['setup_s']:.3f} s, "
            f"timed {r['timed_s']:.3f} s, {r['ops_per_s']:.0f} ops/s"
        )
    stats = {
        "ops_per_s": spread([r["ops_per_s"] for r in rounds]),
        "setup_s": spread([r["setup_s"] for r in rounds]),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": spread([resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024]),
    }
    units = {"ops_per_s": "ops/s", "setup_s": "s", "peak_rss_mb": "MiB"}
    metrics = {
        name: {"value": stats[name]["median"], "unit": unit} for name, unit in units.items()
    }
    return _result(workload, args, rounds, check_rounds(rounds), metrics, stats)


def traced_rounds(workload, args, divisor: int, started: float) -> dict:
    """Paired rounds: an untraced reference, then the same round traced."""
    from trace import Tracer, layer_metric_units

    tracer = Tracer()
    references: List[dict] = []
    traced: List[dict] = []
    while not traced or (
        sum(r["timed_s"] for r in references + traced) < args.seconds
        and time.perf_counter() - started < ROUND_DEADLINE_S
    ):
        references.append(run_round(workload, args.seed, divisor))
        tracer.install()
        try:
            traced.append(run_round(workload, args.seed, divisor, keep=True))
        finally:
            tracer.uninstall()
        ref, tr = references[-1], traced[-1]
        log(
            f"{workload.name}: pair {len(traced)} untraced "
            f"{ref['setup_s'] + ref['timed_s']:.3f} s, traced "
            f"{tr['setup_s'] + tr['timed_s']:.3f} s"
        )
    if tracer.missing:
        log(f"{workload.name}: entry points not found: {tracer.missing}")

    metrics_values = {name: 0.0 for name in layer_metric_units()}
    metrics_values.update(tracer.layer_metrics(len(traced)))
    metrics_values.update(traced[-1]["counters"])
    gen_layer = "traces" if tracer.stats["traces"].calls else "serve.workloads"
    metrics_values[f"{gen_layer}.gen_s"] = statistics.median(r["gen_s"] for r in references)
    metrics_values["trace.overhead_frac"] = statistics.median(
        (t["setup_s"] + t["timed_s"]) / (r["setup_s"] + r["timed_s"]) - 1.0
        for r, t in zip(references, traced)
    )
    metrics_values["trace.coverage_frac"] = tracer.total_self_s() / sum(
        t["setup_s"] + t["timed_s"] for t in traced
    )
    units = layer_metric_units()
    metrics = {
        name: {"value": metrics_values[name], "unit": units[name][0]} for name in units
    }
    stem = f"{workload.name}-seed{args.seed}"
    paths = tracer.write(
        args.out, stem, {"workload": workload.name, "seed": args.seed, "rounds": len(traced)}
    )
    log(f"{workload.name}: spans written to {', '.join(str(p) for p in paths)}")

    rounds = references + traced
    failures = check_rounds(rounds)
    return _result(workload, args, rounds, failures, metrics, {})


if __name__ == "__main__":
    raise SystemExit(main())
