"""Per-layer tracing for the ledger's traced run (``run.py --trace``).

Wrappers are installed at class (or module) level around the public
entry points of each layer, named by module.  Each wrapper opens a
span: it counts the call and measures its duration, and a span's *self
time* is its duration minus the time of the spans it encloses.  Spans
nest properly, so the self times of all layers sum to the duration of
the outermost spans: the set-up calls and the timed entry point.

Spans are kept in memory: per-layer aggregates, plus the full span
tree of every ``SAMPLE_EVERY``-th top-level operation (a direct child
of the timed entry point, e.g. one request or one trace record).  They
are written once, at the end, as JSON and as a Chrome trace.

The wrappers cost time on every call they wrap, so end-to-end numbers
never come from a traced round; ``overhead_frac`` reports the cost.

Note that inside the benchmark's own processes this module shadows the
standard library's ``trace`` module, which nothing there uses.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: every Nth top-level operation keeps its full span tree
SAMPLE_EVERY = 1000

#: layer -> [(module, class name or None for module functions, attributes)]
LAYERS: Dict[str, List[Tuple[str, Optional[str], Tuple[str, ...]]]] = {
    "serve.workloads": [("repro.serve.workloads", None, ("build_workload",))],
    "traces": [
        ("repro.traces.mixes", None, ("heterogeneous_mix",)),
        ("repro.traces.trace", "Trace", ("materialize",)),
    ],
    "serve.driver": [
        ("repro.serve.service", None, ("run_configured",)),
        ("repro.ops.controller", None, ("run_cluster_ops",)),
    ],
    "serve.service": [("repro.serve.service", "CacheService", ("process",))],
    "serve.faults": [
        ("repro.serve.faults", "FaultInjector", ("decide", "degraded", "outage_state")),
    ],
    "serve.resilience": [
        (
            "repro.serve.resilience",
            "ResilienceState",
            ("breaker", "should_shed", "backoff_ms", "retain_stale", "stale_hit", "forget_stale"),
        ),
        ("repro.serve.resilience", "CircuitBreaker", ("allow", "on_success", "on_failure")),
    ],
    "serve.store": [("repro.serve.store", "ObjectStore", ("lookup", "admit"))],
    "serve.backend": [("repro.serve.service", "Backend", ("fetch", "outstanding"))],
    "serve.agent": [
        (
            "repro.serve.agent",
            "ChromeServePolicy",
            ("admit", "on_admit", "on_hit", "select_victim", "on_evict"),
        ),
        ("repro.serve.agent", "ServeAgent", ("decide",)),
        ("repro.serve.agent", "ServeFeatureExtractor", ("extract",)),
        (
            "repro.serve.agent",
            "BackendObstructionMonitor",
            ("observe", "observe_failure", "is_obstructed"),
        ),
    ],
    "serve.policies": [
        (
            "repro.serve.policies",
            "LRUServePolicy",
            ("admit", "on_admit", "on_hit", "select_victim", "on_evict"),
        ),
    ],
    "serve.metrics": [
        (
            "repro.serve.metrics",
            "MetricsRecorder",
            (
                "on_request", "on_shed", "on_stale", "on_error", "on_retry",
                "on_timeout", "on_breaker_open", "note_degraded", "on_admit",
                "on_bypass", "on_evict", "finalize",
            ),
        ),
    ],
    "env.driver": [("repro.env.driver", "AgentCore", ("rl_decide",))],
    "core.qtable": [("repro.core.qtable", "QTable", ("best_action", "apply_delta", "q"))],
    "core.eq": [("repro.core.eq", "EvaluationQueue", ("find", "insert"))],
    "cluster.cluster": [("repro.cluster.cluster", "ClusterService", ("process", "finalize"))],
    "cluster.ring": [("repro.cluster.ring", "HashRing", ("preference", "primary"))],
    "cluster.hotkeys": [
        ("repro.cluster.hotkeys", "HotKeyDetector", ("observe", "roll", "is_hot", "on_evict")),
    ],
    # the name ClusterService.process calls, in the module that calls it
    "cluster.federate": [("repro.cluster.cluster", None, ("federate_agents",))],
    "ops.controller": [("repro.ops.controller", "OpsController", ("on_request",))],
    "obs.signals": [("repro.obs.signals", "SignalReader", ("read",))],
    "ops.guardrail": [("repro.ops.guardrail", "Guardrail", ("observe",))],
    "ops.snapshots": [
        ("repro.cluster.cluster", "ClusterService", ("agent_states", "load_agent_states")),
        ("repro.serve.service", "CacheService", ("agent_states", "load_agent_states")),
        ("repro.ops.snapshots", "SnapshotRing", ("push", "pop_latest")),
    ],
    "sim.multicore": [("repro.sim.multicore", "MultiCoreSystem", ("__init__", "run"))],
    "sim.hierarchy": [
        (
            "repro.sim.hierarchy",
            "CoreHierarchy",
            (
                "_demand_access", "_llc_access", "_fill_l1", "_fill_l2",
                "_writeback", "_writeback_llc", "_drain_llc_victim",
                "_issue_prefetch", "_remember_prefetch", "_credit_prefetch",
            ),
        ),
    ],
    "sim.cache": [("repro.sim.cache", "Cache", ("access", "fill", "fill_lru", "decide_bypass"))],
    "sim.dram": [("repro.sim.dram", "DRAMModel", ("access", "backlog"))],
    "sim.camat": [("repro.sim.camat", "CAMATMonitor", ("maybe_close_epoch", "is_obstructed"))],
    "sim.prefetch": [
        ("repro.sim.prefetch.base", "Prefetcher", ("credit_useful",)),
        ("repro.sim.prefetch.next_line", "NextLinePrefetcher", ("on_access",)),
        ("repro.sim.prefetch.stride", "StridePrefetcher", ("on_access",)),
        ("repro.sim.prefetch.streamer", "StreamerPrefetcher", ("on_access",)),
        ("repro.sim.prefetch.ipcp", "IPCPPrefetcher", ("on_access",)),
    ],
    "core.chrome": [
        (
            "repro.core.chrome",
            "ChromePolicy",
            ("__init__", "should_bypass", "on_fill", "on_hit", "find_victim", "observe_epoch"),
        ),
    ],
    "core.features": [("repro.core.features", "FeatureExtractor", ("extract",))],
}

#: layer counters and ratios beyond self_s/calls: name -> (unit, better)
EXTRA_METRICS: Dict[str, Tuple[str, str]] = {
    "serve.workloads.gen_s": ("s", "lower"),
    "traces.gen_s": ("s", "lower"),
    "serve.service.call_us_p50": ("us", "lower"),
    "serve.service.call_us_p99": ("us", "lower"),
    "serve.resilience.retries": ("count", "lower"),
    "serve.resilience.timeouts": ("count", "lower"),
    "serve.resilience.breaker_opens": ("count", "lower"),
    "serve.resilience.stale_served": ("count", "higher"),
    "serve.resilience.shed": ("count", "lower"),
    "serve.store.hit_ratio": ("ratio", "higher"),
    "serve.store.evictions": ("count", "lower"),
    "serve.store.bypasses": ("count", "lower"),
    "serve.backend.fetches": ("count", "lower"),
    "env.driver.decisions": ("count", "lower"),
    "env.driver.exploration_fraction": ("ratio", "lower"),
    "env.driver.bypass_fraction": ("ratio", "lower"),
    "core.qtable.lookups": ("count", "lower"),
    "core.qtable.updates": ("count", "lower"),
    "core.eq.reward_match_fraction": ("ratio", "higher"),
    "cluster.cluster.reroutes": ("count", "lower"),
    "cluster.cluster.hot_splits": ("count", "lower"),
    "cluster.federate.call_ms_max": ("ms", "lower"),
    "ops.controller.windows": ("count", "lower"),
    "ops.controller.trips": ("count", "lower"),
    "ops.controller.rollbacks": ("count", "lower"),
    "sim.cache.llc_demand_hit_ratio": ("ratio", "higher"),
    "sim.dram.row_hit_ratio": ("ratio", "higher"),
    "sim.camat.obstructed_epoch_fraction": ("ratio", "lower"),
    "sim.prefetch.accuracy": ("ratio", "higher"),
    "trace.overhead_frac": ("ratio", "lower"),
    "trace.coverage_frac": ("ratio", "higher"),
}


def layer_metric_units() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    units: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        units[f"{layer}.self_s"] = ("s", "lower")
        units[f"{layer}.calls"] = ("count", "lower")
    units.update(EXTRA_METRICS)
    return units


class _LayerStats:
    __slots__ = ("calls", "self_s", "max_s", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.max_s = 0.0
        self.durations: Optional[List[float]] = [] if keep_durations else None


class Tracer:
    """In-memory span recorder with class-level install/uninstall."""

    #: layers whose every call duration is kept (for percentiles)
    KEEP_DURATIONS = ("serve.service",)

    def __init__(self) -> None:
        self.stats: Dict[str, _LayerStats] = {
            layer: _LayerStats(layer in self.KEEP_DURATIONS) for layer in LAYERS
        }
        #: one [child_time] frame per open span
        self._stack: List[List[float]] = []
        self.top_level_ops = 0
        self.recording = False
        #: spans of sampled operations: (layer, name, start, duration, depth)
        self.events: List[Tuple[str, str, float, float, int]] = []
        self.missing: List[str] = []
        #: calls per wrapped entry point, e.g. "QTable.best_action" -> [n]
        self.entry_calls: Dict[str, List[int]] = {}
        self._installed: List[Tuple[object, str, object, bool]] = []

    # --- spans ----------------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        stats = self.stats[layer]
        durations = stats.durations
        entry = self.entry_calls.setdefault(name, [0])
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            entry[0] += 1
            depth = len(stack)
            sampled = False
            if depth == 1:
                tracer.top_level_ops += 1
                if tracer.top_level_ops % SAMPLE_EVERY == 0:
                    tracer.recording = sampled = True
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.self_s += duration - frame[0]
                if duration > stats.max_s:
                    stats.max_s = duration
                if durations is not None:
                    durations.append(duration)
                if stack:
                    stack[-1][0] += duration
                if tracer.recording:
                    tracer.events.append((layer, name, start, duration, depth))
                    if sampled:
                        tracer.recording = False

        return span

    # --- install / uninstall --------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point in :data:`LAYERS`; missing ones are
        recorded in :attr:`missing` and skipped."""
        self.missing = []
        for layer, entries in LAYERS.items():
            for module_name, owner_name, attrs in entries:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.append(module_name)
                    continue
                owner = module if owner_name is None else getattr(module, owner_name, None)
                if owner is None:
                    self.missing.append(f"{module_name}.{owner_name}")
                    continue
                for attr in attrs:
                    self._install_one(layer, owner, attr)

    def _install_one(self, layer: str, owner, attr: str) -> None:
        label = f"{owner.__name__}.{attr}"
        raw = inspect.getattr_static(owner, attr, None)
        if not inspect.isfunction(raw):
            self.missing.append(label)
            return
        own = attr in vars(owner)
        self._installed.append((owner, attr, raw, own))
        setattr(owner, attr, self._wrap(layer, label, raw))

    def uninstall(self) -> None:
        for owner, attr, original, own in reversed(self._installed):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._installed.clear()

    # --- results --------------------------------------------------------------

    def total_self_s(self) -> float:
        return sum(s.self_s for s in self.stats.values())

    def layer_metrics(self, rounds: int) -> Dict[str, float]:
        """Per-round self time and calls of every layer, plus the
        span-derived extras (call-time percentiles, federation maximum)."""
        metrics: Dict[str, float] = {}
        for layer, s in self.stats.items():
            metrics[f"{layer}.self_s"] = s.self_s / rounds
            metrics[f"{layer}.calls"] = s.calls / rounds
        service = sorted(self.stats["serve.service"].durations or [])
        metrics["serve.service.call_us_p50"] = 1e6 * _percentile(service, 0.50)
        metrics["serve.service.call_us_p99"] = 1e6 * _percentile(service, 0.99)
        metrics["cluster.federate.call_ms_max"] = 1e3 * self.stats["cluster.federate"].max_s

        def calls(*entries: str) -> float:
            return sum(self.entry_calls.get(e, [0])[0] for e in entries) / rounds

        metrics["env.driver.decisions"] = calls("AgentCore.rl_decide")
        metrics["core.qtable.lookups"] = calls("QTable.best_action", "QTable.q")
        metrics["core.qtable.updates"] = calls("QTable.apply_delta")
        return metrics

    def span_trees(self) -> List[dict]:
        """Rebuild the sampled operations' span trees from their events."""
        roots: List[dict] = []
        open_nodes: List[dict] = []
        for layer, name, start, duration, depth in sorted(
            self.events, key=lambda e: (e[2], e[4])
        ):
            node = {
                "layer": layer,
                "name": name,
                "start_s": start,
                "duration_us": duration * 1e6,
                "children": [],
            }
            while open_nodes and open_nodes[-1]["depth"] >= depth:
                open_nodes.pop()
            if open_nodes:
                open_nodes[-1]["node"]["children"].append(node)
            else:
                roots.append(node)
            open_nodes.append({"depth": depth, "node": node})
        return roots

    def write(self, out_dir: Path, stem: str, header: dict) -> List[Path]:
        """Write the aggregates + sampled trees (JSON) and a Chrome trace."""
        out_dir.mkdir(parents=True, exist_ok=True)
        origin = min((e[2] for e in self.events), default=0.0)
        spans = {
            **header,
            "sample_every": SAMPLE_EVERY,
            "missing_entry_points": self.missing,
            "layers": {
                layer: {"calls": s.calls, "self_s": s.self_s, "max_s": s.max_s}
                for layer, s in self.stats.items()
            },
            "samples": self.span_trees(),
        }
        chrome = {
            "traceEvents": [
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": duration * 1e6,
                    "pid": 1,
                    "tid": 1,
                }
                for layer, name, start, duration, _ in self.events
            ],
            "displayTimeUnit": "ns",
        }
        spans_path = out_dir / f"{stem}.spans.json"
        chrome_path = out_dir / f"{stem}.trace.json"
        spans_path.write_text(json.dumps(spans, indent=1) + "\n")
        chrome_path.write_text(json.dumps(chrome) + "\n")
        return [spans_path, chrome_path]


def _percentile(ordered: List[float], fraction: float) -> float:
    """Nearest-rank percentile of a sorted sample (0 when empty)."""
    if not ordered:
        return 0.0
    rank = min(len(ordered), max(1, math.ceil(fraction * len(ordered))))
    return ordered[rank - 1]
