"""Q-table federation: periodic merge/averaging across shard agents.

Each shard runs its own CHROME serve agent, so each shard only learns
from the slice of traffic the ring routes to it.  Federation closes
that gap the federated-averaging way: every ``federate_every`` requests
the cluster snapshots every agent's Q-table
(:meth:`~repro.core.qtable.QTable.state_dict`), averages them entry by
entry, and loads the merged table back into every agent
(:meth:`~repro.core.qtable.QTable.load_state_dict`) — one shard's
"large scan objects are not worth their bytes" lesson reaches the
whole fleet without any shard seeing another's requests.

Determinism discipline:

* **order independence** — each entry's per-shard values are sorted
  before summing, so float addition order cannot depend on shard
  enumeration order; ``merge_qtable_states(reversed(states))`` is
  bit-identical to the forward merge (pinned by test);
* **grid quantization** — the mean is snapped back to the agents'
  16-bit fixed-point grid, so a merged table is a *valid* table (every
  value representable in the hardware design) and save/merge/restore
  round-trips bit-identically through JSON;
* **counters stay local** — merged ``lookups``/``updates`` are summed
  for the merged snapshot, but each agent keeps its own counters on
  load-back (they are telemetry about the shard, not learned state),
  and agent exploration RNGs are never touched.
"""

from __future__ import annotations

from typing import List, Sequence


def merge_qtable_states(states: Sequence[dict], quantum: float) -> dict:
    """Entrywise average of same-geometry Q-table snapshots.

    ``quantum`` is the fixed-point grid step
    (:attr:`QTable._quantum <repro.core.qtable.QTable>`); every merged
    value is ``round(mean / quantum) * quantum``.  Raises ``ValueError``
    on empty input or mismatched geometry.
    """
    if not states:
        raise ValueError("cannot merge zero Q-table states")
    base = states[0]
    geometry = ("version", "num_features", "num_subtables", "rows", "num_actions")
    for state in states[1:]:
        mismatched = {
            k: (state.get(k), base.get(k))
            for k in geometry
            if state.get(k) != base.get(k)
        }
        if mismatched:
            raise ValueError(f"Q-table geometry mismatch in merge: {mismatched}")
    n = len(states)
    if n == 1:
        # Degenerate merge: still re-quantize, so one-shard federation
        # is the identity (values already live on the grid).
        tables = [
            [
                [
                    [round(v / quantum) * quantum for v in row]
                    for row in subtable
                ]
                for subtable in feature
            ]
            for feature in base["tables"]
        ]
    else:
        all_tables = [s["tables"] for s in states]
        tables = []
        for f, base_feature in enumerate(all_tables[0]):
            feature_out: List[List[List[float]]] = []
            for k, base_subtable in enumerate(base_feature):
                rows_out: List[List[float]] = []
                for r, base_row in enumerate(base_subtable):
                    row_out: List[float] = []
                    for a in range(len(base_row)):
                        # Sorted before summing: the sum (and thus the
                        # mean) is independent of shard order.
                        values = sorted(t[f][k][r][a] for t in all_tables)
                        total = 0.0
                        for v in values:
                            total += v
                        row_out.append(round(total / n / quantum) * quantum)
                    rows_out.append(row_out)
                feature_out.append(rows_out)
            tables.append(feature_out)
    return {
        "version": base["version"],
        "num_features": base["num_features"],
        "num_subtables": base["num_subtables"],
        "rows": base["rows"],
        "num_actions": base["num_actions"],
        "tables": tables,
        "lookups": sum(int(s.get("lookups", 0)) for s in states),
        "updates": sum(int(s.get("updates", 0)) for s in states),
    }


def federate_agents(agents: Sequence) -> dict:
    """One federation round over live agents (in place).

    Snapshots every agent's Q-table, merges, loads the merged table
    back into each — preserving each agent's own lookup/update counters
    and leaving exploration RNG state untouched.  Returns the merged
    snapshot (for persistence or obs).
    """
    if not agents:
        raise ValueError("cannot federate zero agents")
    states = [agent.qtable.state_dict() for agent in agents]
    merged = merge_qtable_states(states, agents[0].qtable._quantum)
    for agent in agents:
        lookups, updates = agent.qtable.lookups, agent.qtable.updates
        agent.qtable.load_state_dict(merged)
        agent.qtable.lookups, agent.qtable.updates = lookups, updates
    return merged
