"""``repro.ops`` — deterministic live operations for the serving tiers.

Production cache fleets are not just *run*, they are *operated*: new
policies are evaluated in shadow before they touch traffic, promoted
when they win, and rolled back automatically when a deploy goes bad.
This package reproduces that whole loop on top of the repo's
determinism discipline — every decision is a pure function of the
global request sequence and seeded metrics, so an entire operational
history (snapshots, promotions, trips, rollbacks) is bit-identical at
any client count and across process boundaries.

* :class:`~repro.ops.config.OpsConfig` — the frozen spec (window size,
  challenger policy, promotion/guardrail thresholds, snapshot cadence);
* :class:`~repro.ops.shadow.ShadowHarness` — an isolated challenger
  service fed the champion's request stream in sequence order, with
  zero effect on served results;
* :class:`~repro.ops.guardrail.Guardrail` — obs-derived window signals
  (p99, byte-hit EWMA, error/shed/breaker fractions) against
  thresholds, with arming, streaks and post-rollback cooldown;
* :class:`~repro.ops.snapshots.SnapshotRing` — bounded last-known-good
  agent snapshots (also the cluster warm-start vehicle);
* :class:`~repro.ops.controller.OpsController` — the window-boundary
  pipeline tying it together, over a single service or a whole fleet;
  :func:`~repro.ops.controller.run_ops` /
  :func:`~repro.ops.controller.run_cluster_ops` are the entry points;
* :class:`~repro.ops.events.OpsEventLog` — the versioned record every
  transition lands in (and the thing the determinism golden pins).
"""

from .config import OpsConfig
from .controller import (
    OpsController,
    OpsResult,
    run_cluster_ops,
    run_ops,
    sabotaged_states,
)
from .events import (
    EVENT_DEGRADE,
    EVENT_PROMOTE,
    EVENT_ROLLBACK,
    EVENT_SNAPSHOT,
    EVENT_TRIP,
    OPS_EVENT_VERSION,
    OpsEvent,
    OpsEventLog,
)
from .guardrail import Guardrail, GuardrailVerdict
from .shadow import ShadowHarness
from .snapshots import SnapshotRing, load_fleet_states, save_fleet_states

__all__ = [
    "EVENT_DEGRADE",
    "EVENT_PROMOTE",
    "EVENT_ROLLBACK",
    "EVENT_SNAPSHOT",
    "EVENT_TRIP",
    "Guardrail",
    "GuardrailVerdict",
    "OPS_EVENT_VERSION",
    "OpsConfig",
    "OpsController",
    "OpsEvent",
    "OpsEventLog",
    "OpsResult",
    "ShadowHarness",
    "SnapshotRing",
    "load_fleet_states",
    "run_cluster_ops",
    "run_ops",
    "sabotaged_states",
    "save_fleet_states",
]
