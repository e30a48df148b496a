"""The serving layer as an :class:`~repro.env.protocol.Environment`.

The serve domain binding: a :class:`~repro.serve.service.CacheService`
request loop driving :class:`~repro.serve.agent.ServeAgent`,
the serve binding of the shared :class:`~repro.env.driver.AgentCore`.
``run()`` is exactly :func:`~repro.serve.service.run_configured` — the
adapter only holds onto the policy instance so the snapshot seam stays
reachable after the run.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import Dict, List

from ..env.protocol import Environment
from ..env.registry import register_environment
from .agent import restore_agents, snapshot_agents
from .config import ServiceConfig
from .service import run_configured
from .workloads import build_workload


class ServeEnvironment(Environment):
    """One CHROME-fronted cache service, run over a workload stream."""

    name = "serve"
    snapshot_kind = "serve-agent"

    def __init__(
        self,
        *,
        workload: str = "zipf_scan",
        num_requests: int = 1000,
        warmup_requests: int = 200,
        capacity_bytes: int = 1 << 20,
        num_segments: int = 64,
        num_clients: int = 1,
        seed: int = 17,
    ) -> None:
        self._num_requests = num_requests
        self.config = ServiceConfig(
            capacity_bytes=capacity_bytes,
            num_segments=num_segments,
            policy="chrome",
            num_clients=num_clients,
            warmup_requests=warmup_requests,
            seed=seed,
            workload_name=workload,
        )
        self.policy = self.config.build_policy()

    def run(self) -> Dict[str, object]:
        requests = build_workload(
            self.config.workload_name,
            self._num_requests + self.config.warmup_requests,
            seed=self.config.seed,
        )
        metrics = run_configured(requests, self.config, policy=self.policy)
        return asdict(metrics)

    def agent_states(self) -> List[dict]:
        return snapshot_agents([self.policy])

    def load_agent_states(
        self, states: List[dict], *, keep_rng: bool = False
    ) -> None:
        restore_agents([self.policy], states, keep_rng=keep_rng)


register_environment("serve", ServeEnvironment)
