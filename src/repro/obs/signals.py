"""Windowed control signals derived from serve-layer recorders.

:mod:`repro.obs` records these measurements as *telemetry*; this module
consumes them the other way — as **control inputs**.  A
:class:`SignalReader` watches one or more live
:class:`~repro.serve.metrics.MetricsRecorder` instances (one for a
single service, one per shard for a fleet) and, at fixed request
boundaries, emits a :class:`WindowSignals` snapshot of what happened
*inside that window*: byte/object hit ratios, the window p99, and the
error/shed/breaker-denied fractions.

Everything is computed from cumulative-counter deltas and a slice of
the recorder's raw latency list, so reading a window:

* never mutates service state (the zero-impact contract the ops layer
  inherits from obs);
* is a pure function of the recorder contents at the boundary — the
  boundary itself is a fixed global sequence number, so the same run
  produces the same window signals at any client count;
* aggregates fleets exactly: counters sum across recorders and the
  window p99 is taken over the sorted union of the per-shard latency
  slices (the same no-percentile-of-percentiles discipline as
  :func:`repro.cluster.cluster._aggregate_fleet`).

The :mod:`repro.ops` guardrail and shadow-comparison logic are the
consumers; the obs timeline records the same rows as ``ops_window``
entries when a session is attached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

from ..serve.metrics import MetricsRecorder, percentile

#: cumulative ServeMetrics counters a window differences
_DELTA_FIELDS = (
    "requests",
    "hits",
    "bytes_requested",
    "bytes_hit",
    "errors",
    "shed",
    "breaker_denied",
)


@dataclass
class WindowSignals:
    """What one request window looked like (deltas, not cumulatives)."""

    requests: int = 0
    hits: int = 0
    bytes_requested: int = 0
    bytes_hit: int = 0
    errors: int = 0
    shed: int = 0
    breaker_denied: int = 0
    p99_ms: float = 0.0

    @property
    def object_hit(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    @property
    def byte_hit(self) -> float:
        if not self.bytes_requested:
            return 0.0
        return self.bytes_hit / self.bytes_requested

    @property
    def error_fraction(self) -> float:
        return self.errors / self.requests if self.requests else 0.0

    @property
    def shed_fraction(self) -> float:
        return self.shed / self.requests if self.requests else 0.0

    @property
    def breaker_denied_fraction(self) -> float:
        return self.breaker_denied / self.requests if self.requests else 0.0

    def as_row(self) -> Dict[str, object]:
        """Flat dict form for ops windows / obs timeline rows."""
        return {
            "requests": self.requests,
            "byte_hit": self.byte_hit,
            "object_hit": self.object_hit,
            "p99_ms": self.p99_ms,
            "error_fraction": self.error_fraction,
            "shed_fraction": self.shed_fraction,
            "breaker_denied_fraction": self.breaker_denied_fraction,
        }


class SignalReader:
    """Differencing reader over live recorders: one window per read.

    Construction snapshots the recorders' current cumulative state;
    each :meth:`read` returns the signals for everything recorded since
    the previous read (or construction) and advances the baseline.
    Warmup traffic never reaches the recorders, so pre-measurement
    windows read back as all-zero — callers treat ``requests == 0`` as
    "nothing to evaluate".
    """

    def __init__(self, recorders: Sequence[MetricsRecorder]) -> None:
        if not recorders:
            raise ValueError("SignalReader needs at least one recorder")
        self._recorders = list(recorders)
        self._prev_counts = [self._counts(r) for r in self._recorders]
        self._prev_latency = [r.latency_count() for r in self._recorders]

    @staticmethod
    def _counts(recorder: MetricsRecorder) -> Dict[str, int]:
        m = recorder.metrics
        return {name: getattr(m, name) for name in _DELTA_FIELDS}

    def read(self) -> WindowSignals:
        """Signals for the window since the last read (exact deltas)."""
        sig = WindowSignals()
        latencies: List[float] = []
        for i, recorder in enumerate(self._recorders):
            counts = self._counts(recorder)
            prev = self._prev_counts[i]
            for name in _DELTA_FIELDS:
                setattr(sig, name, getattr(sig, name) + counts[name] - prev[name])
            self._prev_counts[i] = counts
            start = self._prev_latency[i]
            window = recorder.latency_samples(start)
            self._prev_latency[i] = start + len(window)
            latencies.extend(window)
        if latencies:
            latencies.sort()
            sig.p99_ms = percentile(latencies, 0.99)
        return sig
