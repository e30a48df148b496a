"""Declarative cluster jobs for the parallel experiment engine.

:class:`ClusterJob` follows the :class:`~repro.serve.jobs.ServeJob`
contract exactly — it shares :class:`~repro.serve.jobs.BaseJob`'s
fields, namespaced ``canonical()`` and ``execute()`` — so the engine
schedules, dedups and disk-caches fleet runs with zero new engine code
(it dispatches on ``job.execute()``).

``capacity_bytes`` is **total fleet capacity**, split evenly across
shards: a 4-shard fleet and a 1-shard "fleet" of the same
``capacity_bytes`` cache the same number of bytes, which is what makes
federated-vs-isolated comparisons fair (the bench gate relies on it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar, List, Optional

from ..serve.faults import FaultConfig
from ..serve.jobs import BaseJob
from ..serve.knobs import knob
from ..serve.workloads import Request
from .cluster import ClusterMetrics, run_cluster

#: Bump when cluster semantics change in a way that must invalidate
#: previously cached cluster results.
CLUSTER_CODE_VERSION = "cluster-2"


@dataclass(frozen=True)
class ClusterJob(BaseJob):
    """One fleet run: (workload, policy, ring, fleet shape); capacity is
    the fleet total, ``num_segments`` per shard."""

    kind: ClassVar[str] = "cluster"
    code_version: ClassVar[str] = CLUSTER_CODE_VERSION

    num_shards: int = knob(4, 1)
    replication: int = knob(2, 1)
    vnodes: int = knob(64, 1)
    federate_every: int = knob(0)
    hotkey_window: int = knob(0)
    hotkey_top_k: int = knob(8, 1)
    hotkey_min_count: int = knob(16, 1)
    #: per-shard origin chaos; None = healthy
    faults: Optional[FaultConfig] = None
    #: ring-level shard kill: which shard dies, and the FaultConfig
    #: whose outage windows define *when* (None = no kill)
    kill_shard: int = knob(-1, off=-1)
    kill_faults: Optional[FaultConfig] = None

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.kill_shard >= self.num_shards:
            raise ValueError(
                f"ClusterJob.kill_shard={self.kill_shard} is out of range "
                f"(fleet has {self.num_shards} shards)"
            )

    @property
    def label(self) -> str:
        suffix = ""
        if self.kill_faults is not None:
            suffix += f" +kill{self.kill_shard}"
        if self.federate_every:
            suffix += " +fed"
        return (
            f"cluster:{self.workload} {self.policy} "
            f"x{self.num_shards}{suffix}"
        )

    def run(self, requests: List[Request], obs) -> ClusterMetrics:
        return run_cluster(
            requests,
            self.service_config(),
            self.num_shards,
            replication=self.replication,
            vnodes=self.vnodes,
            federate_every=self.federate_every,
            hotkey_window=self.hotkey_window,
            hotkey_top_k=self.hotkey_top_k,
            hotkey_min_count=self.hotkey_min_count,
            kill_shard=self.kill_shard,
            kill_faults=self.kill_faults,
            obs=obs,
        )
