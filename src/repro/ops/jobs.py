"""Declarative ops jobs for the parallel experiment engine.

An :class:`OpsJob` is a :class:`~repro.serve.jobs.ServeJob` with an
ops control loop attached: the same frozen, hashable, self-describing
spec discipline (:class:`~repro.serve.jobs.BaseJob`), plus the frozen
:class:`~repro.ops.config.OpsConfig` the loop runs.  ``num_shards``
selects the champion tier — ``0`` runs a single
:class:`~repro.serve.service.CacheService`, ``>= 1`` a
:class:`~repro.cluster.cluster.ClusterService` fleet — under the same
controller either way.

The result is an :class:`~repro.ops.controller.OpsResult` (picklable,
value-equal), so ops jobs flow through the engine's memo/disk caches
and the ``--jobs 1`` vs ``--jobs N`` bit-identity checks exactly like
serve and cluster jobs do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List

from ..serve.jobs import BaseJob
from ..serve.knobs import knob
from ..serve.workloads import Request
from .config import OpsConfig
from .controller import OpsResult, run_cluster_ops, run_ops

#: Bump when ops semantics change in a way that must invalidate
#: previously cached ops results.
OPS_CODE_VERSION = "ops-2"


@dataclass(frozen=True)
class OpsJob(BaseJob):
    """One schedulable ops-managed run (serve or cluster champion)."""

    kind: ClassVar[str] = "ops"
    code_version: ClassVar[str] = OPS_CODE_VERSION

    #: the control loop; the default config is inert
    ops: OpsConfig = OpsConfig()
    #: 0 = single-service champion; >= 1 = cluster fleet champion
    num_shards: int = knob(0)
    replication: int = knob(2, 1)
    federate_every: int = knob(0)

    @property
    def label(self) -> str:
        tier = f" x{self.num_shards}" if self.num_shards else ""
        return f"ops:{self.workload} {self.policy}{tier}"

    def run(self, requests: List[Request], obs) -> OpsResult:
        config = self.service_config()
        if self.num_shards:
            return run_cluster_ops(
                requests,
                config,
                self.num_shards,
                self.ops,
                replication=self.replication,
                federate_every=self.federate_every,
                obs=obs,
            )
        return run_ops(requests, config, self.ops, obs=obs)
