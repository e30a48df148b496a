"""The shared CHROME agent driver: Algorithm 1 with the domain unplugged.

:class:`AgentCore` is the decision/training pipeline that used to live
twice in this repo — once in :class:`~repro.core.chrome.ChromePolicy`
(LLC accesses) and once in :class:`~repro.serve.agent.ServeAgent`
(cache requests), line-for-line siblings.  Everything domain-neutral
now lives here exactly once:

* the Q-table / EQ / exploration-RNG trio and its construction,
* per-unit sampling (the 64-sampled-sets scheme, generalized to any
  unit population: LLC sets, store segments, DRAM banks, ...),
* the reward-match on re-request (R_AC/R_IN),
* epsilon-greedy action selection over the legal-action tuples,
* EQ recording, the OB/NOB no-re-request rewards at EQ eviction, and
  the SARSA update pairing an evicted entry with the queue's new head,
* the telemetry counters every binding reports.

A domain *binding* supplies only what Algorithm 1 leaves abstract: a
feature extractor (state vector), the sampled-unit index and key of
each step, the reward flag (``is_prefetch`` / ``is_refresh``), the
acting core/tenant, the obstruction monitor (C-AMAT flags, backend
latency EWMAs, bank pressure), and the RNG seed discipline.  See
:mod:`repro.env.protocol` for the frozen observation/environment
contract and ``DESIGN.md`` §11 for the adapter table.

Hot-path note: bindings call :meth:`rl_decide` with positional scalars
(state tuple, unit index, key, hit, flag, actor) instead of a boxed
:class:`~repro.env.protocol.Observation` — the LLC loop takes this
path tens of thousands of times per run and an allocation per access
would show up in the perf gate.  The dataclass form is for the generic
:func:`run_steps` driver and new low-rate domains.
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Sequence, Tuple

from ..core.config import (
    ACTION_BYPASS,
    ACTION_EPV_HIGH,
    HIT_ACTIONS,
    MISS_ACTIONS,
    ChromeConfig,
)
from ..core.eq import EQEntry, EvaluationQueue, hash_block_address
from ..core.qtable import QTable
from ..sim.replacement.optgen import choose_sampled_sets


class AgentCore:
    """Algorithm 1's decision + training pipeline, domain-unplugged.

    Subclasses (the domain bindings) keep direct attribute access to
    ``qtable`` / ``eq`` / ``_rng`` / ``config`` — that is the seam the
    persistence helpers (:mod:`repro.core.persistence`) and the ops
    snapshot ring rely on, and it is what keeps the bindings thin.
    """

    def __init__(
        self, config: ChromeConfig, num_features: int, rng_seed: int
    ) -> None:
        self.config = config
        self.qtable = QTable(num_features, config)
        self.eq = EvaluationQueue(config.sampled_sets, config.eq_fifo_size)
        self._rng = random.Random(rng_seed)
        # Hot-path hoists: the bound RNG method and the (construction-
        # time) exploration rate, saving attribute chains per decision.
        self._rand = self._rng.random
        self._epsilon = config.epsilon
        self._rewards = config.rewards
        # Legal-action orderings (first element wins arg-max ties);
        # instance attributes so variants/ablations can reorder them.
        self._miss_actions: Tuple[int, ...] = MISS_ACTIONS
        self._hit_actions: Tuple[int, ...] = HIT_ACTIONS
        #: obstruction source: anything with ``is_obstructed(actor)``
        #: (C-AMAT monitor, backend-latency monitor, bank pressure...)
        self._obstruction = None
        self._sampled_queue: Dict[int, int] = {}
        # telemetry
        self.sampled_steps = 0
        self.decisions = 0
        self.explorations = 0
        self.bypass_decisions = 0
        # reward-family mix (Sec. IV-C): how training signal splits
        # between re-request rewards (R_AC/R_IN) and the OB/NOB
        # no-re-request rewards assigned at EQ eviction.
        self.rewards_accurate = 0
        self.rewards_inaccurate = 0
        self.rewards_nr_accurate = 0
        self.rewards_nr_inaccurate = 0
        self.rewards_nr_obstructed = 0

    # --- wiring -----------------------------------------------------------------

    def attach_sampled(self, num_units: int) -> None:
        """Choose the sampled training units (64-sampled-set scheme)."""
        sampled = sorted(
            choose_sampled_sets(num_units, self.config.sampled_sets)
        )
        self._sampled_queue = {s: i for i, s in enumerate(sampled)}
        if len(sampled) != self.eq.num_queues:
            self.eq = EvaluationQueue(len(sampled), self.config.eq_fifo_size)

    def bind_obstruction(self, monitor) -> None:
        """Receive the domain's obstruction monitor (OB/NOB flags)."""
        self._obstruction = monitor

    # --- the RL decision + training pipeline ------------------------------------

    def rl_decide(
        self,
        state: Tuple[int, ...],
        unit_idx: int,
        key: int,
        hit: bool,
        flag: bool,
        actor: int,
    ) -> int:
        """Lines 2-38 of Algorithm 1 for one step.

        ``state`` is the binding's extracted feature vector, ``unit_idx``
        the sampled-unit index (LLC set, store segment, bank), ``key``
        the re-request identity (block address, object key, row),
        ``flag`` the reward split bit (is_prefetch / is_refresh) and
        ``actor`` the core/tenant whose obstruction judges NR rewards.
        Bypass accounting stays in the bindings (the no-bypass ablation
        remaps the action before counting).
        """
        queue_idx = self._sampled_queue.get(unit_idx)

        if queue_idx is not None:
            hashed = hash_block_address(key)
            self.sampled_steps += 1
            # Lines 3-8: reward a matching earlier action.
            entry = self.eq.find(queue_idx, hashed)
            if entry is not None and entry.reward is None:
                self.eq.reward_matches += 1
                rewards = self._rewards
                if hit:
                    entry.reward = rewards.accurate(flag)
                    self.rewards_accurate += 1
                else:
                    entry.reward = rewards.inaccurate(flag)
                    self.rewards_inaccurate += 1

        # Lines 10-19: epsilon-greedy action selection over legal actions.
        legal = self._hit_actions if hit else self._miss_actions
        self.decisions += 1
        if self._rand() < self._epsilon:
            action = legal[self._rng.randrange(len(legal))]
            self.explorations += 1
        else:
            action = self.qtable.best_action(state, legal)

        # Lines 21-38: record the action on sampled units; learn on eviction.
        if queue_idx is not None:
            new_entry = EQEntry(
                state=state,
                action=action,
                trigger_hit=hit,
                hashed_addr=hashed,
                core=actor,
            )
            evicted, head = self.eq.insert(queue_idx, new_entry)
            if evicted is not None and head is not None:
                if not evicted.has_reward:
                    evicted.reward = self._no_rerequest_reward(evicted)
                self._sarsa_update(evicted, head)
        return action

    def _no_rerequest_reward(self, entry: EQEntry) -> float:
        """NR rewards (lines 24-34): praise actions that de-prioritized a
        block nobody asked for again, penalize actions that retained it;
        magnitudes scale with the acting core's obstruction."""
        rewards = self._rewards
        obstructed = (
            self._obstruction.is_obstructed(entry.core)
            if self._obstruction is not None
            else False
        )
        if obstructed:
            self.rewards_nr_obstructed += 1
        if entry.trigger_hit:
            deprioritized = entry.action == ACTION_EPV_HIGH
        else:
            deprioritized = entry.action == ACTION_BYPASS
        if deprioritized:
            self.rewards_nr_accurate += 1
            return rewards.accurate_no_rerequest(obstructed)
        self.rewards_nr_inaccurate += 1
        return rewards.inaccurate_no_rerequest(obstructed)

    def _sarsa_update(self, evicted: EQEntry, head: EQEntry) -> None:
        """Line 38: Q(S1,A1) += alpha [R + gamma Q(S2,A2) - Q(S1,A1)]."""
        cfg = self.config
        q_next = self.qtable.q(head.state, head.action)
        q_cur = self.qtable.q(evicted.state, evicted.action)
        assert evicted.reward is not None
        delta = cfg.alpha * (evicted.reward + cfg.gamma * q_next - q_cur)
        self.qtable.apply_delta(evicted.state, evicted.action, delta)

    # --- reporting ---------------------------------------------------------------

    def reward_mix(self) -> dict:
        """Cumulative reward-family counts (the obs timeline samples
        this each epoch; deltas between epochs give the per-epoch mix)."""
        return {
            "accurate": self.rewards_accurate,
            "inaccurate": self.rewards_inaccurate,
            "nr_accurate": self.rewards_nr_accurate,
            "nr_inaccurate": self.rewards_nr_inaccurate,
            "nr_obstructed": self.rewards_nr_obstructed,
        }

    def core_telemetry(self) -> dict:
        """The binding-independent slice of the telemetry counters."""
        return {
            "decisions": self.decisions,
            "explorations": self.explorations,
            "bypass_decisions": self.bypass_decisions,
            "q_updates": self.qtable.updates,
            "eq_reward_matches": self.eq.reward_matches,
            **{f"reward_{k}": v for k, v in self.reward_mix().items()},
            **self.qtable.snapshot_stats(),
        }


def restore_agent_states(
    agents: Sequence[AgentCore],
    states: Sequence[dict],
    kind: str,
    *,
    keep_rng: bool = False,
) -> None:
    """Load persistence snapshots into live agents, ops-style: all or none.

    One state per agent restores each from its own snapshot (rollback);
    one state broadcasts to every agent (promotion); any other count
    raises ``ValueError``.  Every state passes its checks (version,
    kind, config fingerprint, Q-value grid) before any agent changes.
    ``keep_rng=False`` restores each snapshot completely — Q-table,
    counters and exploration RNG; ``keep_rng=True`` swaps only the
    Q-values, so the live agent keeps its own RNG stream and counters
    and a mid-run swap never replays another agent's exploration.
    Every domain's ``load_agent_states`` calls this.
    """
    from ..core.persistence import check_agent_state, load_checked_state

    if len(states) == 1:
        states = list(states) * len(agents)
    if len(states) != len(agents):
        expected = (
            "1 agent state" if len(agents) == 1 else f"1 or {len(agents)} agent states"
        )
        raise ValueError(f"expected {expected}, got {len(states)}")
    for agent, state in zip(agents, states):
        check_agent_state(agent, state, kind)
    for agent, state in zip(agents, states):
        if keep_rng:
            qtable = dict(state["qtable"])
            qtable["lookups"] = agent.qtable.lookups
            qtable["updates"] = agent.qtable.updates
            state = dict(state, qtable=qtable, rng_state=None)
        load_checked_state(agent, state)


def restore_agent_state(
    agent: AgentCore, state: dict, kind: str, *, keep_rng: bool = False
) -> None:
    """Load one snapshot into one live agent (see :func:`restore_agent_states`)."""
    restore_agent_states([agent], [state], kind, keep_rng=keep_rng)


def run_steps(agent: AgentCore, environment, max_steps: Optional[int] = None):
    """Generic run loop: drive ``agent`` through an environment's steps.

    ``environment`` yields :class:`~repro.env.protocol.Observation`
    steps via ``steps()`` and applies actions via
    ``apply(obs, action)``; the loop owns the agent side (feature
    extraction via ``environment.extract(obs)``, the EQ/SARSA cadence
    inside :meth:`AgentCore.rl_decide`).  This is the convenience path
    for new low-rate domains — the LLC/serve bindings inline the same
    sequence for speed.
    """
    steps = 0
    for obs in environment.steps():
        if max_steps is not None and steps >= max_steps:
            break
        state = environment.extract(obs)
        action = agent.rl_decide(
            state, obs.unit, obs.key, obs.hit, obs.flag, obs.actor
        )
        environment.apply(obs, action)
        steps += 1
    return steps
