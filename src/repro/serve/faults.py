"""Deterministic fault injection for the serving layer.

A real origin is not the always-up, constant-speed box the plain
:class:`~repro.serve.service.Backend` models: it has latency spikes,
transient error bursts, full outages, per-tenant brownouts (one
tenant's shard degrades while the rest stay healthy), and a slow-start
ramp after it recovers.  This module injects all five — *without
touching wall-clock time or ambient randomness*, so the serving
layer's bit-identical determinism guarantee survives chaos testing:

* every fault decision is a **pure function** of
  ``(config, seed, request sequence number, attempt, virtual time)``.
  There is no shared RNG stream to race on — ``num_clients=1`` and
  ``num_clients=64`` draw exactly the same faults, and so do two
  processes on two machines (``mix_hash`` is arithmetic, not
  ``hash()``);
* fault *windows* (outages, brownouts, error bursts) live in **virtual
  time**: request ``seq`` arrives at ``seq x inter_arrival_ms``, so a
  "250 ms outage" hits the same requests in every run at every client
  count and on every host.

The injector only *decides*; the service
(:meth:`~repro.serve.service.CacheService.process`)
applies the decisions, and :mod:`repro.serve.resilience` supplies the
graceful-degradation machinery (timeouts, retries, breakers, stale
serving, shedding) that turns injected faults into bounded damage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..sim.address import mix_hash
from .knobs import Checked, knob

_MASK64 = (1 << 64) - 1
_GOLDEN64 = 0x9E3779B97F4A7C15
_INV_2_64 = 1.0 / float(1 << 64)
_INF = float("inf")

# Salt constants so independent decision streams never correlate.
_SALT_ERROR = 0x51
_SALT_SPIKE = 0x52
_SALT_OUTAGE = 0x53
_SALT_BURST = 0x54
_SALT_BROWNOUT = 0x55


@dataclass(frozen=True)
class FaultConfig(Checked):
    """Declarative fault model (all windows/latencies in virtual ms).

    Every field has an "off" default, so ``FaultConfig()`` injects
    nothing; experiments enable exactly the failure modes they study.
    A rate/window of ``0`` disables that fault class.
    """

    seed: int = knob(0)
    #: background per-attempt transient failure probability
    error_rate: float = knob(0.0, 0, 1)
    #: per-attempt probability of a latency spike, and its multiplier
    spike_rate: float = knob(0.0, 0, 1)
    spike_multiplier: float = knob(8.0, 1)
    #: error bursts: windows where the transient error rate jumps
    burst_every_ms: float = knob(0.0)
    burst_duration_ms: float = knob(0.0)
    burst_error_rate: float = knob(0.8, 0, 1)
    #: full outages: windows where *every* origin fetch fails
    outage_every_ms: float = knob(0.0)
    outage_duration_ms: float = knob(0.0)
    #: slow start after an outage: latency multiplier decaying back to 1
    recovery_ramp_ms: float = knob(0.0)
    recovery_multiplier: float = knob(4.0, 1)
    #: per-tenant brownout: one tenant's shard degrades periodically
    brownout_tenant: int = knob(-1, off=-1)
    brownout_every_ms: float = knob(0.0)
    brownout_duration_ms: float = knob(0.0)
    brownout_error_rate: float = knob(0.5, 0, 1)
    brownout_multiplier: float = knob(3.0, 1)


class FaultInjector:
    """Pure-function fault oracle over a :class:`FaultConfig`.

    All randomness is derived by hashing ``(seed, salt, ...)`` through
    the splitmix64 finalizer — pure, order-independent and
    process-independent, which is what lets the concurrent driver
    consult it without any sequencing constraints beyond the ones the
    service already enforces.  Each fault class memoizes the starts of
    its current and previous window; a start depends only on
    ``(seed, salt, k)``, so the memo changes the cost, never an answer.
    """

    __slots__ = ("config", "_seed", "_starts")

    def __init__(self, config: FaultConfig) -> None:
        self.config = config
        self._seed = mix_hash((config.seed << 1) ^ 0xFA017)
        #: salt -> (k, start of window k, start of window k - 1)
        self._starts: Dict[int, Tuple[int, float, float]] = {}

    # --- deterministic randomness ---------------------------------------------

    def _unit(self, salt: int, a: int, b: int = 0) -> float:
        """Uniform [0, 1) from (seed, salt, a, b) — pure, no state."""
        h = mix_hash((self._seed ^ (salt * _GOLDEN64) ^ (a << 20) ^ b) & _MASK64)
        return h * _INV_2_64

    # --- windows in virtual time ----------------------------------------------

    def _window(
        self, now_ms: float, every_ms: float, duration_ms: float, salt: int
    ) -> Tuple[bool, float]:
        """Is ``now_ms`` inside the periodic fault window, and how long
        since the most recent window *ended* (``inf`` if none ended yet)?

        Window ``k`` starts at ``k*every + jitter_k`` where the jitter
        is a pure hash of ``(seed, salt, k)`` — windows land at
        irregular but fully reproducible times.  A salt is always asked
        with the same ``(every_ms, duration_ms)``, so its one memo slot
        is refilled only when ``k`` changes; a window before ``k = 0``
        starts at ``inf``, which no comparison below matches.
        """
        if every_ms <= 0.0 or duration_ms <= 0.0:
            return False, _INF
        k = int(now_ms // every_ms)
        slot = self._starts.get(salt)
        if slot is None or slot[0] != k:
            span = max(0.0, every_ms - duration_ms)
            start, prev = (
                kk * every_ms + self._unit(salt, kk) * span if kk >= 0 else _INF
                for kk in (k, k - 1)
            )
            slot = self._starts[salt] = (k, start, prev)
        _, start, prev = slot
        end = start + duration_ms
        prev_end = prev + duration_ms
        if start <= now_ms < end or prev <= now_ms < prev_end:
            return True, 0.0
        since_end = now_ms - end if now_ms >= end else _INF
        if now_ms >= prev_end:
            since_end = min(since_end, now_ms - prev_end)
        return False, since_end

    def outage_state(self, now_ms: float) -> Tuple[bool, float]:
        """(in-outage, ms-since-last-outage-ended) at ``now_ms``."""
        return self._window(
            now_ms,
            self.config.outage_every_ms,
            self.config.outage_duration_ms,
            _SALT_OUTAGE,
        )

    def _burst_active(self, now_ms: float) -> bool:
        active, _ = self._window(
            now_ms,
            self.config.burst_every_ms,
            self.config.burst_duration_ms,
            _SALT_BURST,
        )
        return active

    def _brownout_active(self, tenant: int, now_ms: float) -> bool:
        if tenant != self.config.brownout_tenant:
            return False
        active, _ = self._window(
            now_ms,
            self.config.brownout_every_ms,
            self.config.brownout_duration_ms,
            _SALT_BROWNOUT,
        )
        return active

    # --- the decision the service consumes -------------------------------------

    def degraded(self, tenant: int, now_ms: float) -> bool:
        """Is any fault window (outage/recovery/burst/brownout) active?

        Used to label requests for degraded-mode metrics; pure, so the
        label is identical across client counts and processes.
        """
        cfg = self.config
        in_outage, since_end = self.outage_state(now_ms)
        if in_outage or since_end < cfg.recovery_ramp_ms:
            return True
        if self._burst_active(now_ms):
            return True
        return self._brownout_active(tenant, now_ms)

    def decide(
        self, seq: int, attempt: int, tenant: int, now_ms: float
    ) -> Tuple[bool, float]:
        """Fate of one origin-fetch attempt: ``(failed, latency_multiplier)``.

        A full outage fails every attempt outright; otherwise the
        attempt draws against the (burst/brownout-elevated) transient
        error rate, and its latency is scaled by any active spike,
        brownout or post-outage slow-start multiplier.
        """
        cfg = self.config
        in_outage, since_end = self.outage_state(now_ms)
        if in_outage:
            return True, 1.0
        multiplier = 1.0
        if since_end < cfg.recovery_ramp_ms:
            # Linear slow-start: full penalty right after recovery,
            # back to 1x by the end of the ramp.
            frac = 1.0 - since_end / cfg.recovery_ramp_ms
            multiplier *= 1.0 + (cfg.recovery_multiplier - 1.0) * frac
        error_rate = cfg.error_rate
        if self._burst_active(now_ms):
            error_rate = max(error_rate, cfg.burst_error_rate)
        if self._brownout_active(tenant, now_ms):
            error_rate = max(error_rate, cfg.brownout_error_rate)
            multiplier *= cfg.brownout_multiplier
        if cfg.spike_rate > 0.0 and self._unit(_SALT_SPIKE, seq, attempt) < cfg.spike_rate:
            multiplier *= cfg.spike_multiplier
        failed = error_rate > 0.0 and self._unit(_SALT_ERROR, seq, attempt) < error_rate
        return failed, multiplier
