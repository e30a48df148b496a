"""Live-operations subsystem: shadow, hot-swap, guardrail, rollback.

The contracts under test, in order of importance:

* **zero impact** — attaching the ops controller (inert config, or with
  a shadow challenger running) leaves champion metrics byte-identical
  to a plain :func:`run_configured` run;
* **determinism** — the complete :class:`OpsResult` (windows, events,
  counters) is value-equal at ``num_clients`` 1 vs 64, including runs
  with injected degradation, trips and rollbacks;
* **guardrail semantics** — warmup arming, EWMA smoothing, raw-breach
  suspicion (poison protection), trip streaks, post-rollback cooldown;
* **snapshot ring** — bounded retention, consume-on-rollback walk-back,
  JSON persistence round trip;
* **recovery** — an injected bad deploy on a drifting workload actually
  trips the guardrail, rolls back, and the cache re-learns.
"""

from __future__ import annotations

import json
from dataclasses import replace
from functools import lru_cache

import pytest

from repro.obs.signals import WindowSignals
from repro.ops import (
    EVENT_DEGRADE,
    EVENT_PROMOTE,
    EVENT_ROLLBACK,
    EVENT_SNAPSHOT,
    EVENT_TRIP,
    Guardrail,
    OpsConfig,
    ShadowHarness,
    SnapshotRing,
    load_fleet_states,
    run_cluster_ops,
    run_ops,
    sabotaged_states,
)
from repro.ops.snapshots import save_fleet_states
from repro.serve.config import ServiceConfig
from repro.serve.service import run_configured
from repro.serve.workloads import build_workload

# The committed serve-golden spec (chrome_zipf_scan), reused so the
# zero-impact claim is pinned against the exact stream the golden runs.
_SPEC = dict(
    capacity_bytes=2 << 20,
    num_segments=64,
    policy="chrome",
    num_clients=5,
    warmup_requests=200,
    checkpoint_every=400,
    seed=17,
    workload_name="zipf_scan",
)


def _config(**over) -> ServiceConfig:
    params = dict(_SPEC)
    params.update(over)
    return ServiceConfig.from_params(**params)


def _zipf_requests(n=1200, seed=17):
    return build_workload("zipf_scan", n, seed=seed)


def _phase_requests(n=4000, seed=17):
    return build_workload("phases", n, seed=seed, num_phases=8)


# The validated recovery scenario: a drifting (phases) workload, bad
# deploy injected at window 6, byte-hit guardrail armed.
_GUARDED = OpsConfig(
    window=200,
    min_byte_hit_ewma=0.05,
    trip_after=2,
    warmup_windows=2,
    snapshot_every=2,
    degrade_at_window=6,
)


def _signals(byte_hit=0.5, requests=1000, p99_ms=1.0, errors=0, shed=0):
    return WindowSignals(
        requests=requests,
        hits=int(requests * byte_hit),
        bytes_requested=requests * 1000,
        bytes_hit=int(requests * 1000 * byte_hit),
        errors=errors,
        shed=shed,
        p99_ms=p99_ms,
    )


# --- zero impact ----------------------------------------------------------------


def test_inert_ops_config_is_byte_identical_to_plain_run():
    requests = _zipf_requests()
    plain = run_configured(requests, _config())
    managed = run_ops(requests, _config(), OpsConfig())
    assert managed.champion == plain
    assert managed.challenger is None
    assert managed.events == []
    assert (managed.snapshots, managed.trips, managed.rollbacks) == (0, 0, 0)


def test_shadow_challenger_has_zero_champion_impact():
    requests = _zipf_requests()
    plain = run_configured(requests, _config())
    shadowed = run_ops(
        requests,
        _config(),
        OpsConfig(window=200, challenger_policy="lru"),
    )
    assert shadowed.champion == plain  # structural isolation, pinned
    assert shadowed.challenger is not None
    assert shadowed.challenger.policy == "lru"
    # per-window delta rows exist and carry both sides
    assert len(shadowed.windows) == len(requests) // 200
    measured = [w for w in shadowed.windows if w["champion_requests"]]
    assert measured
    for row in measured:
        assert row["delta_byte_hit"] == pytest.approx(
            row["challenger_byte_hit"] - row["champion_byte_hit"]
        )


def test_shadow_requires_challenger_policy():
    with pytest.raises(ValueError, match="challenger_policy"):
        ShadowHarness(_config(), OpsConfig())


# --- determinism ----------------------------------------------------------------


@lru_cache(maxsize=None)
def _guarded_run(clients: int):
    """Memoized: several tests inspect the same pure-function run."""
    return run_ops(_phase_requests(), _config(num_clients=clients), _GUARDED)


@pytest.mark.parametrize("clients", [1, 64])
def test_guarded_degrade_run_is_client_count_invariant(clients):
    baseline = _guarded_run(5)
    assert baseline.degradations == 1
    assert baseline.trips >= 1 and baseline.rollbacks >= 1
    assert _guarded_run(clients) == baseline  # full OpsResult value equality


def test_shadowed_run_is_client_count_invariant():
    ops = OpsConfig(window=200, challenger_policy="lru")
    one = run_ops(_zipf_requests(), _config(num_clients=1), ops)
    many = run_ops(_zipf_requests(), _config(num_clients=64), ops)
    assert one == many


# --- guardrail unit semantics ---------------------------------------------------


def test_guardrail_skips_empty_windows():
    guard = Guardrail(_GUARDED)
    verdict = guard.observe(_signals(requests=0))
    assert not verdict.suspect and not verdict.tripped
    assert verdict.byte_hit_ewma is None


def test_guardrail_arms_only_after_warmup():
    # Armed from the warmup_windows-th *measured* window onward: with
    # warmup_windows=2 the second measured window is already judged
    # armed (the historic off-by-one armed one window later).
    guard = Guardrail(_GUARDED)  # warmup_windows=2, trip_after=2
    v1 = guard.observe(_signals(byte_hit=0.0))
    assert v1.suspect and not v1.armed and not v1.tripped
    v2 = guard.observe(_signals(byte_hit=0.0))
    assert v2.suspect and v2.armed
    assert v2.streak == 2 and v2.tripped  # armed exactly at the boundary


def test_guardrail_empty_windows_do_not_burn_warmup():
    guard = Guardrail(_GUARDED)  # warmup_windows=2
    for _ in range(5):
        guard.observe(_signals(requests=0))
    v1 = guard.observe(_signals(byte_hit=0.0))
    assert not v1.armed  # only measured windows count toward warmup
    assert guard.observe(_signals(byte_hit=0.0)).armed


def test_guardrail_alternating_breach_degradation_trips():
    # Degradation that alternates a hard-breach window (p99) with a
    # window whose only symptom is a raw byte-hit breach while the
    # EWMA coasts on healthy history.  The raw-only window is streak-
    # neutral: pre-fix it reset the streak and this pattern never
    # accumulated trip_after consecutive breaches.
    guard = Guardrail(OpsConfig(min_byte_hit_ewma=0.4, max_p99_ms=5.0,
                                trip_after=2, warmup_windows=0,
                                ewma_beta=0.2))
    for _ in range(4):
        assert not guard.observe(_signals(byte_hit=0.9)).suspect
    v1 = guard.observe(_signals(byte_hit=0.9, p99_ms=9.0))
    assert v1.streak == 1 and not v1.tripped
    mid = guard.observe(_signals(byte_hit=0.0))
    assert mid.suspect and not mid.breaches  # raw-only breach
    assert mid.streak == 1  # held, not reset
    v2 = guard.observe(_signals(byte_hit=0.9, p99_ms=9.0))
    assert v2.streak == 2 and v2.tripped


def test_guardrail_cooldown_ticks_through_empty_windows():
    guard = Guardrail(OpsConfig(min_byte_hit_ewma=0.4, trip_after=1,
                                warmup_windows=0, cooldown_windows=2,
                                ewma_beta=1.0))
    assert guard.observe(_signals(byte_hit=0.0)).tripped
    guard.reset_after_rollback()
    # An idle stretch after the rollback: empty windows carry no
    # samples but still burn the cooldown grace (pre-fix they were
    # skipped wholesale and could pin the guardrail disarmed forever).
    guard.observe(_signals(requests=0))
    guard.observe(_signals(requests=0))
    assert guard.observe(_signals(byte_hit=0.0)).tripped


def test_guardrail_raw_breach_marks_suspect_while_ewma_coasts():
    guard = Guardrail(OpsConfig(min_byte_hit_ewma=0.4, trip_after=2,
                                warmup_windows=2, ewma_beta=0.2))
    for _ in range(4):
        assert not guard.observe(_signals(byte_hit=0.5)).suspect
    # First degraded window: EWMA coasts at 0.5*0.8 = 0.4 (no EWMA
    # breach), but the raw 0.0 sample marks the window suspect so no
    # poisoned snapshot can be pushed.  The trip streak stays at zero.
    first = guard.observe(_signals(byte_hit=0.0))
    assert first.suspect and first.streak == 0 and not first.tripped
    # EWMA then crosses: 0.32, 0.256 -> two consecutive breaches trip.
    second = guard.observe(_signals(byte_hit=0.0))
    assert second.streak == 1 and not second.tripped
    third = guard.observe(_signals(byte_hit=0.0))
    assert third.streak == 2 and third.tripped
    assert guard.trips == 1


def test_guardrail_healthy_window_resets_streak():
    guard = Guardrail(OpsConfig(min_byte_hit_ewma=0.4, trip_after=3,
                                warmup_windows=0, ewma_beta=1.0))
    guard.observe(_signals(byte_hit=0.1))
    guard.observe(_signals(byte_hit=0.1))
    healthy = guard.observe(_signals(byte_hit=0.9))
    assert healthy.streak == 0 and not healthy.suspect
    assert guard.trips == 0


def test_guardrail_p99_and_error_thresholds_compare_raw():
    guard = Guardrail(OpsConfig(max_p99_ms=5.0, max_error_fraction=0.1,
                                trip_after=1, warmup_windows=0))
    verdict = guard.observe(_signals(p99_ms=9.0, errors=200))
    assert verdict.tripped
    names = [b[0] for b in verdict.breaches]
    assert "p99_ms" in names and "error_fraction" in names


def test_guardrail_cooldown_holds_fire_after_rollback():
    guard = Guardrail(OpsConfig(min_byte_hit_ewma=0.4, trip_after=1,
                                warmup_windows=0, cooldown_windows=2,
                                ewma_beta=1.0))
    assert guard.observe(_signals(byte_hit=0.0)).tripped
    guard.reset_after_rollback()
    assert guard.byte_hit_ewma is None  # fresh EWMA for the restored state
    v1 = guard.observe(_signals(byte_hit=0.0))
    v2 = guard.observe(_signals(byte_hit=0.0))
    assert v1.suspect and v2.suspect
    assert not v1.tripped and not v2.tripped  # cooldown grace
    assert guard.observe(_signals(byte_hit=0.0)).tripped


# --- snapshot ring --------------------------------------------------------------


def _fake_states(tag):
    return [{"kind": "serve-agent", "tag": tag}]


def test_ring_bounds_retention_and_walks_back_on_pop():
    ring = SnapshotRing(2)
    for window in (1, 2, 3):
        ring.push(window, _fake_states(window))
    assert len(ring) == 2 and ring.pushes == 3
    assert ring.windows() == [2, 3]
    assert ring.pop_latest()[0] == 3  # rollback consumes the entry...
    assert ring.pop_latest()[0] == 2  # ...so the next one walks back
    assert ring.pop_latest() is None


def test_ring_rejects_zero_capacity_and_empty_save(tmp_path):
    with pytest.raises(ValueError, match="capacity"):
        SnapshotRing(0)
    with pytest.raises(ValueError, match="empty"):
        SnapshotRing(1).save_latest(tmp_path)


def test_ring_persistence_round_trips(tmp_path):
    states = [{"kind": "serve-agent", "shard": i, "q": [0.5, -1.25]}
              for i in range(3)]
    ring = SnapshotRing(4)
    ring.push(7, states)
    assert ring.save_latest(tmp_path) == 3
    assert sorted(p.name for p in tmp_path.glob("agent-*.json")) == [
        "agent-000.json", "agent-001.json", "agent-002.json",
    ]
    assert load_fleet_states(tmp_path) == states
    with pytest.raises(FileNotFoundError):
        load_fleet_states(tmp_path / "missing")


def test_save_fleet_states_leaves_no_tmp_files(tmp_path):
    save_fleet_states(_fake_states(1), tmp_path)
    assert list(tmp_path.glob("*.tmp")) == []


# --- sabotage (the injected bad deploy) -----------------------------------------


def test_sabotaged_states_load_through_grid_validation():
    from repro.serve.service import build_service, replay_requests

    service = build_service(_config())
    replay_requests(service, _zipf_requests(800))
    trained = service.agent_states()
    bad = sabotaged_states(trained)
    assert bad[0]["qtable"]["values"] != trained[0]["qtable"]["values"]
    # both clamp bounds sit on the grid: loads cleanly through the
    # grid-validated persistence path, and survives JSON
    service.load_agent_states(bad, keep_rng=True)
    assert json.loads(json.dumps(bad)) == bad


def test_agent_state_seams_reject_unlearned_policies_and_wrong_counts():
    from repro.cluster.cluster import ClusterService
    from repro.serve.service import build_service

    lru = _config(policy="lru")
    for target in (build_service(lru), ClusterService(lru, 2)):
        with pytest.raises(ValueError, match="'lru' has no learning agent"):
            target.agent_states()
        with pytest.raises(ValueError, match="'lru' has no learning agent"):
            target.load_agent_states(_fake_states(1))
    service = build_service(_config())
    fleet = ClusterService(_config(), 2)
    one = service.agent_states()
    values = one[0]["qtable"]["values"]
    nan = dict(one[0], qtable=dict(one[0]["qtable"], values=[float("nan")] + values[1:]))
    for target, states, message in (
        (service, [], "expected 1 agent state, got 0"),
        (service, one * 2, "expected 1 agent state, got 2"),
        (fleet, one * 3, "expected 1 or 2 agent states, got 3"),
        (fleet, [one[0], nan], "not finite"),  # shard 0's state must not load
        (fleet, [one[0], dict(one[0], rng_state=[3, [1, 2], None])], "malformed"),
    ):
        before = target.agent_states()
        with pytest.raises(ValueError, match=message):
            target.load_agent_states(states)
        assert target.agent_states() == before  # nothing half-loaded


# --- recovery end to end --------------------------------------------------------


def test_degradation_trips_guardrail_and_rollback_recovers():
    result = _guarded_run(5)
    kinds = [e["kind"] for e in result.events]
    assert EVENT_DEGRADE in kinds
    assert EVENT_TRIP in kinds and EVENT_ROLLBACK in kinds
    assert kinds.index(EVENT_TRIP) > kinds.index(EVENT_DEGRADE)
    # rollback restores a pre-degradation learned state and the cache
    # comes back: the final windows hit again
    tail = [w for w in result.windows if w["window"] >= result.windows[-1]["window"] - 2]
    assert any(w["champion_byte_hit"] > 0.0 for w in tail)
    # the guarded run must beat the same degradation unguarded
    unguarded = run_ops(
        _phase_requests(),
        _config(),
        OpsConfig(window=200, degrade_at_window=6),
    )
    assert unguarded.rollbacks == 0
    assert result.champion.byte_hit_ratio > unguarded.champion.byte_hit_ratio


def test_rollback_walks_back_past_poisoned_snapshots():
    result = _guarded_run(5)
    restored = [
        e["restored_window"] for e in result.events if e["kind"] == EVENT_ROLLBACK
    ]
    assert restored  # at least one rollback fired
    # consumed-on-restore: a rollback can never restore the same ring
    # entry twice (pop_latest removes it), so restored windows are
    # unique, and each restore reaches strictly into the past of the
    # trip that triggered it
    assert len(set(restored)) == len(restored)
    trip_windows = [e["window"] for e in result.events if e["kind"] == EVENT_TRIP]
    for trip, good in zip(trip_windows, restored):
        assert good < trip
    # restored snapshots were judged healthy when pushed (never a
    # window the guardrail marked suspect)
    suspect_windows = {
        w["window"] for w in result.windows if w.get("guard_suspect")
    }
    assert not (set(restored) & suspect_windows)


# --- promotion ------------------------------------------------------------------


def test_challenger_promotion_fires_once_and_is_deterministic():
    # promote_margin=-1 makes every measured window a challenger win:
    # promotion must fire exactly once, at the earliest legal boundary.
    ops = OpsConfig(
        window=200,
        challenger_policy="chrome",
        promote_after=2,
        promote_margin=-1.0,
        snapshot_every=0,
    )
    runs = [
        run_ops(_zipf_requests(), _config(num_clients=c), ops) for c in (1, 5)
    ]
    assert runs[0] == runs[1]
    result = runs[0]
    assert result.promotions == 1
    promotes = [e for e in result.events if e["kind"] == EVENT_PROMOTE]
    assert len(promotes) == 1
    assert promotes[0]["challenger"] == "chrome"
    assert promotes[0]["win_streak"] == 2
    # the outgoing champion was snapshotted as the rollback target
    assert result.snapshots == 1
    assert [e["kind"] for e in result.events].count(EVENT_SNAPSHOT) == 0


# --- cluster fleet --------------------------------------------------------------


def test_cluster_fleet_rollback_is_client_count_invariant():
    # 3 shard-sized caches run a lower healthy byte-hit than the single
    # service, so the fleet floor sits below the single-service one.
    guarded_fleet = replace(_GUARDED, min_byte_hit_ewma=0.02)
    results = []
    for clients in (1, 64):
        results.append(
            run_cluster_ops(
                _phase_requests(),
                _config(num_clients=clients),
                3,
                guarded_fleet,
                federate_every=500,
            )
        )
    assert results[0] == results[1]
    result = results[0]
    assert result.degradations == 1 and result.rollbacks >= 1
    # fleet snapshots are fleet-shaped: rollback restored all 3 shards
    rollbacks = [e for e in result.events if e["kind"] == EVENT_ROLLBACK]
    assert all(e["agents"] == 3 for e in rollbacks)


def test_cluster_broadcast_load_replicates_one_state_fleet_wide():
    from repro.cluster.cluster import ClusterService

    cluster = ClusterService(_config(), 3)
    for seq, req in enumerate(_zipf_requests(900)):
        cluster.process(seq, req)
    states = cluster.agent_states()
    assert len(states) == 3
    # broadcast a recognizably distinct single state (the sabotage
    # shape) and every shard must adopt it
    bad = sabotaged_states([states[0]])
    assert bad[0]["qtable"]["values"] != states[0]["qtable"]["values"]
    cluster.load_agent_states(bad, keep_rng=True)
    for state in cluster.agent_states():
        assert state["qtable"]["values"] == bad[0]["qtable"]["values"]


# --- config plumbing ------------------------------------------------------------


def test_ops_config_enablement_properties():
    assert not OpsConfig().shadow_enabled
    assert not OpsConfig().guard_enabled
    assert OpsConfig(challenger_policy="lru").shadow_enabled
    assert OpsConfig(min_byte_hit_ewma=0.1).guard_enabled
    assert OpsConfig(max_p99_ms=5.0).guard_enabled
    assert OpsConfig(max_error_fraction=0.5).guard_enabled
