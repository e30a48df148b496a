"""The frozen spec of one live-operations control loop.

:class:`OpsConfig` declares everything the :class:`~repro.ops.controller.
OpsController` does at window boundaries: whether a shadow challenger
runs, when it is promoted, which guardrail thresholds arm auto-rollback,
how often last-known-good snapshots are taken, and (for benches/CI) when
a simulated bad deploy is injected.  Like every other config in the
repo it is a frozen, literal-only dataclass, so it sits in frozen job
specs as is, crosses process boundaries, and keys caches; each field
carries its allowed range (:mod:`repro.serve.knobs`), checked when the
config is built.

Epochs are **request windows**: every ``window`` global sequence
numbers the controller evaluates the window that just ended.  All
thresholds compare against :class:`~repro.obs.signals.WindowSignals`
values — window byte-hit (EWMA-smoothed for the trip decision), window
p99 in virtual ms, and the error/shed/breaker-denied fractions — so
every decision is a pure function of (seed, sequence number), never of
wall-clock time.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..serve.knobs import Checked, Params, knob, named
from ..serve.policies import SERVE_POLICIES


@dataclass(frozen=True)
class OpsConfig(Checked):
    """Knobs of the shadow / hot-swap / guardrail state machine.

    Disabled-state conventions match :class:`~repro.serve.resilience.
    ResilienceConfig`: ``0`` / ``-1`` / ``1.0`` turn a knob off, and
    the all-defaults config is *inert* — no shadow, no promotion, no
    guardrail, no injection — so attaching it changes nothing.
    """

    #: requests per evaluation window (the ops epoch)
    window: int = knob(256, 1)
    #: challenger policy name ("" = no shadow evaluation)
    challenger_policy: str = named("", "serve policy", SERVE_POLICIES, off="")
    #: literal policy params for the challenger (picklable spec tuples)
    challenger_params: Params = ()
    #: consecutive winning windows that promote the challenger (0 = never)
    promote_after: int = knob(0)
    #: challenger window byte-hit must beat champion by this margin
    promote_margin: float = knob(0.0, -1, 1)
    #: trip when the window p99 exceeds this many virtual ms (0 = off)
    max_p99_ms: float = knob(0.0)
    #: trip when the byte-hit EWMA falls below this ratio (-1 = off)
    min_byte_hit_ewma: float = knob(-1.0, 0, 1, off=-1)
    #: trip when a window's error fraction exceeds this (1 = off)
    max_error_fraction: float = knob(1.0, 0, 1)
    #: trip when a window's shed fraction exceeds this (1 = off)
    max_shed_fraction: float = knob(1.0, 0, 1)
    #: trip when a window's breaker-denied fraction exceeds this (1 = off)
    max_breaker_denied_fraction: float = knob(1.0, 0, 1)
    #: EWMA weight of the newest window's byte-hit sample
    ewma_beta: float = knob(0.35, 0, 1, open_lo=True)
    #: consecutive breaching windows required to trip the guardrail
    trip_after: int = knob(2, 1)
    #: measured windows observed before the guardrail arms (EWMA settle)
    warmup_windows: int = knob(2)
    #: measured windows the guardrail holds fire after a rollback
    cooldown_windows: int = knob(4)
    #: push a last-known-good snapshot every N healthy windows (0 = off;
    #: snapshots need a learned policy, so the default stays off)
    snapshot_every: int = knob(0)
    #: snapshots retained in the in-memory ring
    ring_capacity: int = knob(4, 1)
    #: inject a simulated bad deploy at the end of this absolute window
    #: index (-1 = never) — the bench/CI degradation scenario
    degrade_at_window: int = knob(-1, off=-1)

    @property
    def shadow_enabled(self) -> bool:
        return bool(self.challenger_policy)

    @property
    def guard_enabled(self) -> bool:
        """Any rollback threshold armed?"""
        return (
            self.max_p99_ms > 0.0
            or self.min_byte_hit_ewma >= 0.0
            or self.max_error_fraction < 1.0
            or self.max_shed_fraction < 1.0
            or self.max_breaker_denied_fraction < 1.0
        )
