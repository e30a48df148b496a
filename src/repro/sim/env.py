"""The LLC simulator as an :class:`~repro.env.protocol.Environment`.

The sim domain binding: a :class:`~repro.sim.multicore.MultiCoreSystem`
epoch loop driving :class:`~repro.core.chrome.ChromePolicy` (the LLC
binding of the shared :class:`~repro.env.driver.AgentCore`).  The
adapter owns nothing the simulator does not already provide — it maps
the protocol's run/snapshot contract onto the existing machinery:

* features/obstruction: bound by ``MultiCoreSystem.__init__`` itself
  (``bind_camat`` + the epoch listener);
* ``run()``: one homogeneous mix through ``MultiCoreSystem.run`` with
  the standard warmup convention, summarized into a picklable mapping;
* snapshots: the ``chrome-agent`` persistence kind.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List

from ..core.chrome import ChromePolicy
from ..core.config import ChromeConfig
from ..core.persistence import agent_state
from ..env.driver import restore_agent_states
from ..env.protocol import Environment
from ..env.registry import register_environment
from ..traces.mixes import homogeneous_mix
from .multicore import MultiCoreSystem, SystemConfig


class SimEnvironment(Environment):
    """One CHROME-managed simulated machine, run to completion."""

    name = "sim"
    snapshot_kind = "chrome-agent"

    def __init__(
        self,
        *,
        workload: str = "mcf06",
        num_cores: int = 2,
        accesses_per_core: int = 1200,
        warmup_accesses: int = 300,
        seed: int = 7,
        scale: float = 1 / 64,
        sampled_sets: int = 16,
    ) -> None:
        self._workload = workload
        self._accesses = accesses_per_core
        self._warmup = warmup_accesses
        self._seed = seed
        self._scale = scale
        self.policy = ChromePolicy(
            replace(ChromeConfig(), sampled_sets=sampled_sets)
        )
        self.system = MultiCoreSystem(
            SystemConfig(num_cores=num_cores, scale=scale),
            llc_policy=self.policy,
        )

    def run(self) -> Dict[str, object]:
        traces = homogeneous_mix(
            self._workload,
            self.system.config.num_cores,
            self._accesses + self._warmup,
            seed=self._seed,
            scale=self._scale,
        )
        result = self.system.run(
            traces,
            max_accesses_per_core=self._accesses,
            warmup_accesses=self._warmup,
        )
        llc = result.llc_stats
        return {
            "policy": result.policy_name,
            "ipcs": list(result.ipcs),
            "llc_accesses": llc.demand_accesses,
            "llc_hits": llc.demand_hits,
            "llc_misses": llc.demand_misses,
            "telemetry": dict(self.policy.telemetry()),
        }

    def agent_states(self) -> List[dict]:
        return [agent_state(self.policy, self.snapshot_kind)]

    def load_agent_states(
        self, states: List[dict], *, keep_rng: bool = False
    ) -> None:
        restore_agent_states(
            [self.policy], states, self.snapshot_kind, keep_rng=keep_rng
        )


register_environment("sim", SimEnvironment)
