"""Version-tagged JSON persistence for trained CHROME agents.

Both agents in the repo — the LLC :class:`~repro.core.chrome.ChromePolicy`
and the serving layer's :class:`~repro.serve.agent.ServeAgent` — expose
the same trio of learned state: a :class:`~repro.core.qtable.QTable`, an
exploration RNG, and a :class:`~repro.core.config.ChromeConfig`.  The
helpers here snapshot that trio to JSON so a table trained in one
context (e.g. the LLC simulator, or a long serve run) can warm-start
another.

Why JSON and not pickle: snapshots survive refactors of the agent
classes, diff readably, and Python's float repr round-trips exactly —
``json.loads(json.dumps(x)) == x`` bit-for-bit — so a restored Q-table
is *bit-identical* to the saved one (the round-trip test pins this).

Each snapshot carries ``version`` and ``kind`` tags; restore refuses
mismatched kinds/geometry instead of silently mislearning.
"""

from __future__ import annotations

import json
import math
import os
import random
from pathlib import Path
from typing import Any, Dict

SNAPSHOT_VERSION = 1


def _config_fingerprint(config) -> Dict[str, Any]:
    """The config fields a Q-table snapshot must agree on to be loadable."""
    return {
        "num_subtables": config.num_subtables,
        "subtable_entries": config.subtable_entries,
        "q_fixed_point_fraction_bits": config.q_fixed_point_fraction_bits,
        "q_value_bits": config.q_value_bits,
        "alpha": config.alpha,
        "gamma": config.gamma,
        "epsilon": config.epsilon,
    }


def _rng_state_to_json(state) -> list:
    """``random.Random.getstate()`` -> JSON-safe structure."""
    version, internal, gauss = state
    return [version, list(internal), gauss]


def _rng_state_from_json(data) -> tuple:
    version, internal, gauss = data
    return (version, tuple(internal), gauss)


def agent_state(agent, kind: str) -> Dict[str, Any]:
    """Snapshot an agent (anything with ``qtable``, ``_rng``, ``config``)."""
    return {
        "version": SNAPSHOT_VERSION,
        "kind": kind,
        "config": _config_fingerprint(agent.config),
        "qtable": agent.qtable.state_dict(),
        "rng_state": _rng_state_to_json(agent._rng.getstate()),
    }


def _validate_qtable_grid(agent, qtable_state: Dict[str, Any]) -> None:
    """Refuse snapshots whose values are not live fixed-point Q-values.

    The config fingerprint pins the grid's *parameters*, but a snapshot
    produced by a different build (or corrupted in transit) can still
    carry the wrong number of values, non-numbers, infinities, NaNs, or
    values that are not representable on this config's
    ``quantum``-spaced, ``q_value_bits``-clamped lattice.  The scalar
    :class:`~repro.core.qtable.QTable` would load off-grid values
    silently and then drift — every subsequent update rounds *deltas*,
    not totals, so an off-grid table never converges back onto the
    lattice and its decisions stop matching the run that produced the
    snapshot.  Rejecting here turns that silent corruption into an
    immediate, explicit error before any live state is touched.  A
    table holds few distinct values, so each is checked once.
    """
    values = agent.qtable.checked_values(qtable_state)
    config = agent.config
    quantum = 1.0 / (1 << config.q_fixed_point_fraction_bits)
    limit = (1 << (config.q_value_bits - 1)) * quantum
    lo, hi = -limit, limit - quantum
    try:
        distinct = set(values)
    except TypeError:  # an unhashable entry is not a number either
        distinct = values
    for value in distinct:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(f"snapshot Q-value {value!r} is not a number; refusing to load")
        if not math.isfinite(value):
            raise ValueError(f"snapshot Q-value {value!r} is not finite; refusing to load")
        tick = round(value / quantum)
        if tick * quantum != value:
            raise ValueError(
                f"snapshot Q-value {value!r} is off the live fixed-point "
                f"grid (quantum={quantum!r}); refusing to load — the "
                "snapshot was produced under a different "
                "q_fixed_point_fraction_bits or is corrupt"
            )
        if value < lo or value > hi:
            raise ValueError(
                f"snapshot Q-value {value!r} exceeds the live clamp "
                f"[{lo!r}, {hi!r}] (q_value_bits={config.q_value_bits}); "
                "refusing to load"
            )


def check_agent_state(agent, state: Dict[str, Any], kind: str) -> None:
    """Raise ``ValueError`` unless ``state`` can load into ``agent``.

    Checks the version, kind, config fingerprint, Q-value grid,
    counters and RNG state, and changes nothing — so a fleet restore
    can check every snapshot before it loads any.
    """
    if state.get("version") != SNAPSHOT_VERSION:
        raise ValueError(
            f"unsupported agent snapshot version {state.get('version')!r} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    if state.get("kind") != kind:
        raise ValueError(
            f"snapshot kind {state.get('kind')!r} does not match {kind!r} "
            "(an LLC agent snapshot cannot warm-start a serve agent "
            "directly, and vice versa)"
        )
    expected = _config_fingerprint(agent.config)
    saved = state.get("config", {})
    mismatched = {
        k: (saved.get(k), v) for k, v in expected.items() if saved.get(k) != v
    }
    if mismatched:
        raise ValueError(f"agent config mismatch on restore: {mismatched}")
    qtable = state["qtable"]
    _validate_qtable_grid(agent, qtable)
    try:
        int(qtable.get("lookups", 0)), int(qtable.get("updates", 0))
        if state.get("rng_state") is not None:
            random.Random(0).setstate(_rng_state_from_json(state["rng_state"]))
    except (TypeError, ValueError) as exc:
        raise ValueError(
            f"snapshot counters or rng_state are malformed ({exc}); refusing to load"
        ) from None


def load_checked_state(agent, state: Dict[str, Any]) -> None:
    """Write a snapshot that passed :func:`check_agent_state` into ``agent``."""
    agent.qtable.load_state_dict(state["qtable"])
    rng_state = state.get("rng_state")
    if rng_state is not None:
        agent._rng.setstate(_rng_state_from_json(rng_state))


def load_agent_state(agent, state: Dict[str, Any], kind: str) -> None:
    """Restore a snapshot into a live agent (geometry-checked)."""
    check_agent_state(agent, state, kind)
    load_checked_state(agent, state)


def save_agent(agent, path: str | os.PathLike, kind: str) -> None:
    """Write an agent snapshot atomically (tmp file + rename)."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(json.dumps(agent_state(agent, kind)))
    os.replace(tmp, target)


def restore_agent(agent, path: str | os.PathLike, kind: str) -> None:
    """Load a snapshot written by :func:`save_agent` into ``agent``."""
    state = json.loads(Path(path).read_text())
    load_agent_state(agent, state, kind)
