"""The ledger's four workloads: inputs, the timed call, outputs and checks.

A round of a workload has two timed parts:

* **set-up** — :meth:`Workload.setup` builds the inputs: the request
  stream or the traces, plus the simulated machine for the sim;
* **timed section** — ``Prepared.call()``, one call to the layer's
  public entry point (``MultiCoreSystem.run``, ``run_configured`` or
  ``run_cluster_ops``), finalize included.

``--seed`` reaches only the request or trace generator
(``build_workload`` / ``heterogeneous_mix``); agent, fault and config
seeds are constants of each workload, so two seeds differ in traffic
only.  The benchmark never edits the code it measures: it builds inputs
and calls public functions.

Generator calls go through their module (``mixes.heterogeneous_mix``,
``serve_workloads.build_workload``) so the traced run can wrap them in
place (see ``trace.py``).
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.experiments.runner import ExperimentScale, resolve_policy
from repro.ops import controller as ops_controller
from repro.ops.config import OpsConfig
from repro.serve import service as serve_service
from repro.serve import workloads as serve_workloads
from repro.serve.config import LatencyConfig, ServiceConfig
from repro.serve.experiments import chaos_fault_params, resilient_params
from repro.serve.faults import FaultConfig
from repro.sim.multicore import MultiCoreSystem, SystemConfig
from repro.traces import mixes

#: (value, unit) pairs a workload reports
Outputs = Dict[str, Tuple[float, str]]


@dataclass
class Prepared:
    """One round's inputs, ready for the timed call."""

    call: Callable[[], object]
    #: operations the timed call performs (trace records or requests,
    #: warmup included)
    ops: int
    #: wall time of the generator calls inside set-up
    gen_s: float
    context: dict


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int, int], Prepared]
    #: the exact simulated / virtual-time outputs
    outputs: Callable[[Prepared, object], Outputs]
    #: layer counters the traced run reports (``<layer>.<counter>``)
    counters: Callable[[Prepared, object], Dict[str, float]]
    #: failure messages; empty when every output check holds
    checks: Callable[[Prepared, object], List[str]]


def digest(result) -> str:
    """Content hash of a result object (dataclass reprs are value-only)."""
    return hashlib.sha256(repr(result).encode()).hexdigest()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _agent_counters(telemetries: List[dict]) -> Dict[str, float]:
    """RL-core ratios from the agents' own counters, summed over agents
    (warmup included).  Decision, lookup and update counts come from
    the traced call counts instead: an ops rollback restores these
    counters along with the Q-table."""

    def total(key: str) -> int:
        return sum(t.get(key, 0) for t in telemetries)

    decisions = total("decisions")
    sampled = total("sampled_accesses") + total("sampled_requests")
    return {
        "env.driver.exploration_fraction": _ratio(total("explorations"), decisions),
        "env.driver.bypass_fraction": _ratio(total("bypass_decisions"), decisions),
        "core.eq.reward_match_fraction": _ratio(total("eq_reward_matches"), sampled),
    }


def _conservation(label: str, m) -> List[str]:
    """Every request ends as exactly one of hit/origin/stale/error/shed."""
    parts = m.hits + m.origin_served + m.stale_served + m.errors + m.shed
    if parts != m.requests:
        return [f"{label}: hits+origin+stale+errors+shed = {parts} != requests {m.requests}"]
    return []


def _serve_side_counters(m) -> Dict[str, float]:
    return {
        "serve.store.hit_ratio": m.object_hit_ratio,
        "serve.store.evictions": m.evictions,
        "serve.store.bypasses": m.bypassed,
        "serve.backend.fetches": m.backend_fetches,
        "serve.resilience.retries": m.retries,
        "serve.resilience.timeouts": m.timeouts,
        "serve.resilience.breaker_opens": m.breaker_opens,
        "serve.resilience.stale_served": m.stale_served,
        "serve.resilience.shed": m.shed,
    }


def _serve_outputs(m, unroutable: int = 0) -> Outputs:
    failed = m.errors + m.shed + unroutable
    return {
        "byte_hit_ratio": (m.byte_hit_ratio, "ratio"),
        "p99_latency_ms": (m.p99_latency_ms, "ms"),
        "failed_fraction": (_ratio(failed, m.requests + unroutable), "ratio"),
    }


# --- sim_quad_chrome --------------------------------------------------------------

SIM_APPS = ("mcf06", "libquantum06", "lbm17", "omnetpp17")
SIM_SCALE = 1 / 16
SIM_RECORDS = 50_000  # per core, warmup included
SIM_WARMUP = 10_000


def _sim_setup(seed: int, divisor: int) -> Prepared:
    records, warmup = SIM_RECORDS // divisor, SIM_WARMUP // divisor
    start = time.perf_counter()
    traces = [
        t.materialize()
        for t in mixes.heterogeneous_mix(SIM_APPS, records, seed=seed, scale=SIM_SCALE)
    ]
    gen_s = time.perf_counter() - start
    system = MultiCoreSystem(
        SystemConfig(num_cores=len(SIM_APPS), scale=SIM_SCALE),
        llc_policy=resolve_policy("chrome", SIM_SCALE),
    )
    return Prepared(
        call=lambda: system.run(traces, warmup_accesses=warmup),
        ops=sum(len(t) for t in traces),
        gen_s=gen_s,
        context={"system": system, "traces": traces, "warmup": warmup},
    )


def _sim_outputs(prep: Prepared, result) -> Outputs:
    llc = result.llc_stats
    instructions = sum(c.instructions for c in result.cores)
    return {
        "ipc_sum": (sum(result.ipcs), "IPC"),
        "llc_mpki": (1000.0 * _ratio(llc.demand_misses, instructions), "MPKI"),
    }


def _sim_counters(prep: Prepared, result) -> Dict[str, float]:
    llc = result.llc_stats
    obstructed = result.camat_summary["per_core_obstructed_epoch_fraction"]
    return {
        "sim.cache.llc_demand_hit_ratio": _ratio(
            llc.demand_hits, llc.demand_hits + llc.demand_misses
        ),
        "sim.dram.row_hit_ratio": prep.context["system"].dram.row_hit_rate,
        "sim.camat.obstructed_epoch_fraction": sum(obstructed) / len(obstructed),
        "sim.prefetch.accuracy": result.prefetcher_accuracy,
        **_agent_counters([result.extra.get("policy_telemetry", {})]),
    }


def _sim_checks(prep: Prepared, result) -> List[str]:
    """Every core retires its full trace: measured instructions equal
    the instruction count of its post-warmup records."""
    warmup = prep.context["warmup"]
    failures = []
    for i, (trace, core) in enumerate(zip(prep.context["traces"], result.cores)):
        expected = sum(r.gap + 1 for r in trace.records[warmup:])
        if core.instructions != expected:
            failures.append(
                f"core {i} retired {core.instructions} instructions, trace has {expected}"
            )
    return failures


# --- serve_zipf_scan / serve_chaos ------------------------------------------------

SERVE_REQUESTS = 150_000  # warmup included
SERVE_WARMUP = 30_000
SERVE_CAPACITY = 16 << 20
SERVE_SEGMENTS = 128
SERVE_CLIENTS = 8
SERVE_CONFIG_SEED = 0


def _serve_setup(policy: str, chaos: bool) -> Callable[[int, int], Prepared]:
    def setup(seed: int, divisor: int) -> Prepared:
        total, warmup = SERVE_REQUESTS // divisor, SERVE_WARMUP // divisor
        params = {}
        if chaos:
            # Fault windows and breaker timing scale with the horizon.
            scale = ExperimentScale(
                accesses_per_core=total - warmup, warmup_per_core=warmup
            )
            params = dict(
                fault_params=chaos_fault_params(scale),
                resilience_params=resilient_params(scale),
            )
        config = ServiceConfig.from_params(
            capacity_bytes=SERVE_CAPACITY,
            num_segments=SERVE_SEGMENTS,
            policy=policy,
            num_clients=SERVE_CLIENTS,
            warmup_requests=warmup,
            seed=SERVE_CONFIG_SEED,
            workload_name="zipf_scan",
            **params,
        )
        start = time.perf_counter()
        requests = serve_workloads.build_workload("zipf_scan", total, seed=seed)
        gen_s = time.perf_counter() - start
        return Prepared(
            call=lambda: serve_service.run_configured(requests, config),
            ops=len(requests),
            gen_s=gen_s,
            context={},
        )

    return setup


def _serve_counters(prep: Prepared, m) -> Dict[str, float]:
    counters = _serve_side_counters(m)
    if m.telemetry:
        counters.update(_agent_counters([m.telemetry]))
    return counters


def _serve_checks(prep: Prepared, m) -> List[str]:
    return _conservation("service", m)


def _chaos_checks(prep: Prepared, m) -> List[str]:
    failures = _conservation("service", m)
    for name in ("retries", "stale_served", "breaker_opens"):
        if getattr(m, name) <= 0:
            failures.append(f"serve_chaos exercised no {name}")
    return failures


# --- fleet_ops --------------------------------------------------------------------

FLEET_REQUESTS = 60_000  # warmup included
FLEET_WARMUP = 12_000
FLEET_SHARDS = 4
FLEET_REPLICATION = 2
FLEET_CAPACITY = 16 << 20
FLEET_SEGMENTS = 64
FLEET_PHASES = 8
FLEET_FEDERATE_EVERY = 6_000
FLEET_HOTKEY_WINDOW = 3_000
FLEET_CONFIG_SEED = 11
FLEET_KILLED_SHARD = 1
#: the FaultConfig seed whose single outage window (every = horizon,
#: duration = horizon / 10) opens at 0.498 of the horizon
FLEET_KILL_SEED = 154
FLEET_DEGRADE_WINDOW = 6
#: a frozen (sabotaged) fleet cache still serves 4-6% of bytes on some
#: seeds, so a 0.05 floor never trips there; 0.15 trips twice on every
#: seed tried (0-39 full size, 0-29 quick)
FLEET_MIN_BYTE_HIT_EWMA = 0.15


def _fleet_setup(seed: int, divisor: int) -> Prepared:
    total, warmup = FLEET_REQUESTS // divisor, FLEET_WARMUP // divisor
    latency = LatencyConfig(queue_penalty_ms=0.6)
    config = ServiceConfig(
        capacity_bytes=FLEET_CAPACITY,
        num_segments=FLEET_SEGMENTS,
        policy="chrome",
        num_clients=SERVE_CLIENTS,
        warmup_requests=warmup,
        seed=FLEET_CONFIG_SEED,
        workload_name="phases",
        latency=latency,
    )
    ops = OpsConfig(
        window=total // 21,
        min_byte_hit_ewma=FLEET_MIN_BYTE_HIT_EWMA,
        trip_after=2,
        warmup_windows=2,
        snapshot_every=2,
        degrade_at_window=FLEET_DEGRADE_WINDOW,
    )
    horizon = total * latency.inter_arrival_ms
    kill = FaultConfig(
        seed=FLEET_KILL_SEED,
        outage_every_ms=horizon,
        outage_duration_ms=horizon / 10,
    )
    start = time.perf_counter()
    requests = serve_workloads.build_workload(
        "phases", total, seed=seed, num_phases=FLEET_PHASES
    )
    gen_s = time.perf_counter() - start
    return Prepared(
        call=lambda: ops_controller.run_cluster_ops(
            requests,
            config,
            FLEET_SHARDS,
            ops,
            replication=FLEET_REPLICATION,
            federate_every=FLEET_FEDERATE_EVERY // divisor,
            hotkey_window=FLEET_HOTKEY_WINDOW // divisor,
            kill_shard=FLEET_KILLED_SHARD,
            kill_faults=kill,
        ),
        ops=len(requests),
        gen_s=gen_s,
        context={},
    )


def _fleet_outputs(prep: Prepared, result) -> Outputs:
    return _serve_outputs(result.champion.fleet, result.champion.unroutable)


def _fleet_counters(prep: Prepared, result) -> Dict[str, float]:
    cm = result.champion
    counters = _serve_side_counters(cm.fleet)
    counters.update(_agent_counters([m.telemetry for m in cm.per_shard]))
    counters.update(
        {
            "cluster.cluster.reroutes": cm.reroutes,
            "cluster.cluster.hot_splits": cm.hot_splits,
            "ops.controller.windows": len(result.windows),
            "ops.controller.trips": result.trips,
            "ops.controller.rollbacks": result.rollbacks,
        }
    )
    return counters


def _fleet_checks(prep: Prepared, result) -> List[str]:
    cm = result.champion
    failures = _conservation("fleet", cm.fleet)
    for i, m in enumerate(cm.per_shard):
        failures += _conservation(f"shard {i}", m)
    for label, value, floor in (
        ("trips", result.trips, 1),
        ("rollbacks", result.rollbacks, 1),
        ("ring changes", cm.ring_changes, 2),
        ("federations", cm.federations, 1),
    ):
        if value < floor:
            failures.append(f"fleet_ops had {value} {label}, expected >= {floor}")
    return failures


#: why each workload exists is recorded in BENCHMARK.json and README.md
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("sim_quad_chrome", _sim_setup, _sim_outputs, _sim_counters, _sim_checks),
        Workload(
            "serve_zipf_scan",
            _serve_setup("chrome", chaos=False),
            lambda prep, m: _serve_outputs(m),
            _serve_counters,
            _serve_checks,
        ),
        Workload(
            "serve_chaos",
            _serve_setup("lru", chaos=True),
            lambda prep, m: _serve_outputs(m),
            _serve_counters,
            _chaos_checks,
        ),
        Workload("fleet_ops", _fleet_setup, _fleet_outputs, _fleet_counters, _fleet_checks),
    )
}
