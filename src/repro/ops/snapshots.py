"""Last-known-good agent snapshots: the ring auto-rollback restores from.

The controller pushes full agent states (the
:func:`~repro.core.persistence.agent_state` dict — the Q-table as one
flat value list, RNG, config fingerprint) into a bounded
:class:`SnapshotRing` at healthy
window boundaries; rollback loads the newest entry back.  Entries are
*fleet-shaped*: one state per champion agent (length 1 for a single
service, one per shard for a cluster), so a fleet rolls back all
shards to the same boundary atomically.

The ring also persists: :meth:`SnapshotRing.save_latest` writes the
newest entry as one JSON file per agent via the same atomic-rename
discipline as :func:`~repro.core.persistence.save_agent`, and
:func:`load_fleet_states` reads such a directory back — which is
exactly the cluster warm-start path (train a fleet, save per-shard
snapshots, rebuild the fleet in a different process, restore, continue
bit-identically; ``tests/test_fleet_warmstart.py`` pins this across a
real process boundary).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

#: per-agent snapshot file name inside a ring directory
_SHARD_FILE = "agent-{idx:03d}.json"


class SnapshotRing:
    """Bounded ring of (window, fleet-state-list) snapshots.

    Only *healthy* boundaries are pushed (the controller skips windows
    whose signals breach any raw threshold), so the newest entry is by
    construction the last known good state.
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("snapshot ring capacity must be >= 1")
        self.capacity = capacity
        self._entries: List[Tuple[int, List[Dict[str, Any]]]] = []
        #: total pushes over the ring's lifetime (not just retained)
        self.pushes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def push(self, window: int, states: List[Dict[str, Any]]) -> None:
        """Retain ``states`` as the newest known-good entry."""
        self._entries.append((window, states))
        if len(self._entries) > self.capacity:
            self._entries.pop(0)
        self.pushes += 1

    def latest(self) -> Optional[Tuple[int, List[Dict[str, Any]]]]:
        """The newest (window, states) entry, or None when empty."""
        return self._entries[-1] if self._entries else None

    def pop_latest(self) -> Optional[Tuple[int, List[Dict[str, Any]]]]:
        """Remove and return the newest entry (rollback consumes it).

        Rollback *consumes* the snapshot it restores: a state that was
        captured while a bad deploy was still coasting on cached
        content can look healthy and poison the ring, so if the
        restored state trips the guardrail again, the next rollback
        walks one entry further back — the ring is searched newest to
        oldest until a genuinely good state holds.
        """
        return self._entries.pop() if self._entries else None

    def windows(self) -> List[int]:
        """Window indices currently retained (oldest first)."""
        return [w for w, _ in self._entries]

    # --- persistence (warm starts across process boundaries) ----------------------

    def save_latest(self, directory: str | os.PathLike) -> int:
        """Write the newest entry as one JSON file per agent.

        Returns the number of agent files written; raises when the ring
        is empty (nothing known-good to persist).  Atomic per file
        (tmp + rename), same as :func:`repro.core.persistence.save_agent`.
        """
        latest = self.latest()
        if latest is None:
            raise ValueError("snapshot ring is empty; nothing to save")
        _, states = latest
        save_fleet_states(states, directory)
        return len(states)


def save_fleet_states(
    states: List[Dict[str, Any]], directory: str | os.PathLike
) -> None:
    """Persist one agent-state dict per file under ``directory``."""
    target = Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    for idx, state in enumerate(states):
        path = target / _SHARD_FILE.format(idx=idx)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(state))
        os.replace(tmp, path)


def load_fleet_states(directory: str | os.PathLike) -> List[Dict[str, Any]]:
    """Read back a :func:`save_fleet_states` directory (index order)."""
    target = Path(directory)
    paths = sorted(target.glob("agent-*.json"))
    if not paths:
        raise FileNotFoundError(
            f"no agent snapshots (agent-*.json) under {target}"
        )
    return [json.loads(p.read_text()) for p in paths]
