"""Q-table federation: periodic merge/averaging across shard agents.

Each shard runs its own CHROME serve agent, so each shard only learns
from the slice of traffic the ring routes to it.  Federation closes
that gap the federated-averaging way: every ``federate_every`` requests
the cluster reads every agent's flat Q-values
(:meth:`~repro.core.qtable.QTable.values`), averages them entry by
entry, and writes the mean back into every live table in place
(:meth:`~repro.core.qtable.QTable.load_values`) — one shard's "large
scan objects are not worth their bytes" lesson reaches the whole fleet
without any shard seeing another's requests.

Determinism discipline:

* **order independence** — every live Q-value is ``k * 2**-f`` with
  ``|k| <= 2**15`` (``f`` fractional bits, 16-bit values), so a sum of
  up to 2**37 of them is an integer multiple of ``2**-f`` below 2**52
  ticks: every partial sum is exactly representable, float addition is
  exact, and any shard order gives the same bits.
  ``merge_qtable_states(reversed(states))`` is bit-identical to the
  forward merge (pinned by test);
* **grid quantization** — the mean is snapped back to the agents'
  16-bit fixed-point grid, so a merged table is a *valid* table (every
  value representable in the hardware design) and save/merge/restore
  round-trips bit-identically through JSON;
* **counters stay local** — merged ``lookups``/``updates`` are summed
  for the merged snapshot, but a federation round writes Q-values
  only: each agent keeps its own counters (telemetry about the shard,
  not learned state), and agent exploration RNGs are never touched.
"""

from __future__ import annotations

from operator import add
from typing import List, Sequence


def _mean_on_grid(value_lists: Sequence[List[float]], quantum: float) -> List[float]:
    """Entrywise mean of equal-length value lists, snapped to the grid."""
    totals = value_lists[0]
    for values in value_lists[1:]:
        totals = list(map(add, totals, values))
    n = len(value_lists)
    return [round(t / n / quantum) * quantum for t in totals]


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
    return {
        **{k: base[k] for k in geometry},
        "values": _mean_on_grid([s["values"] for s in states], quantum),
        "lookups": sum(int(s.get("lookups", 0)) for s in states),
        "updates": sum(int(s.get("updates", 0)) for s in states),
    }


def federate_agents(agents: Sequence) -> List[float]:
    """One federation round over live agents (in place).

    Averages every agent's Q-values and writes the mean straight into
    each live table — counters, row caches and exploration RNG state
    are left as they are.  Returns the merged flat value list.
    """
    if not agents:
        raise ValueError("cannot federate zero agents")
    tables = [agent.qtable for agent in agents]
    if len({(t.num_features, t.num_subtables, t.rows) for t in tables}) > 1:
        raise ValueError("cannot federate Q-tables of different geometry")
    merged = _mean_on_grid([t.values() for t in tables], tables[0]._quantum)
    for table in tables:
        table.load_values(merged)
    return merged
