"""The sharded fleet as an :class:`~repro.env.protocol.Environment`.

The cluster domain binding: per-shard
:class:`~repro.serve.agent.ServeAgent` instances (the serve binding of
the shared :class:`~repro.env.driver.AgentCore`) behind the consistent
ring, with optional Q-table federation.  The snapshot seam is
fleet-shaped — :meth:`ClusterService.agent_states` already speaks the
broadcast / per-shard restore discipline the ops rollback uses, so the
adapter delegates verbatim.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List

from ..env.protocol import Environment
from ..env.registry import register_environment
from ..serve.config import ServiceConfig
from ..serve.workloads import build_workload
from .cluster import ClusterService


class ClusterEnvironment(Environment):
    """One CHROME-managed cache fleet, run over a workload stream."""

    name = "cluster"
    snapshot_kind = "serve-agent"

    def __init__(
        self,
        *,
        workload: str = "zipf_scan",
        num_requests: int = 900,
        warmup_requests: int = 0,
        num_shards: int = 3,
        capacity_bytes: int = 1 << 20,
        num_segments: int = 64,
        seed: int = 17,
        federate_every: int = 0,
    ) -> None:
        self._num_requests = num_requests
        self.config = ServiceConfig(
            capacity_bytes=capacity_bytes,
            num_segments=num_segments,
            policy="chrome",
            num_clients=1,
            warmup_requests=warmup_requests,
            seed=seed,
            workload_name=workload,
        )
        self.cluster = ClusterService(
            self.config, num_shards, federate_every=federate_every
        )

    def run(self) -> Dict[str, object]:
        requests = build_workload(
            self.config.workload_name,
            self._num_requests + self.config.warmup_requests,
            seed=self.config.seed,
        )
        for seq, req in enumerate(requests):
            self.cluster.process(seq, req)
        return asdict(self.cluster.finalize())

    def agent_states(self) -> List[dict]:
        return self.cluster.agent_states()

    def load_agent_states(
        self, states: List[dict], *, keep_rng: bool = False
    ) -> None:
        self.cluster.load_agent_states(states, keep_rng=keep_rng)


register_environment("cluster", ClusterEnvironment)
