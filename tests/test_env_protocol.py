"""Environment-protocol conformance suite.

Parametrized over every registered environment adapter: registering a
new domain (``register_environment``) opts it into these checks
automatically.  The suite pins the contract every adapter must honor:

* **construction** — spec-driven, no hidden globals: two instances
  built from the same overrides are independent;
* **determinism** — run-twice equality of the full result mapping
  (the engine's ``--jobs 1`` vs ``--jobs N`` guarantee depends on it);
* **result shape** — ``run()`` returns a picklable, JSON-roundtrippable
  mapping;
* **snapshots** — ``agent_states()`` round-trips through
  ``load_agent_states``: a full restore (``keep_rng=False``)
  reproduces the snapshot byte-for-byte; a hot swap
  (``keep_rng=True``) transfers Q-values while the live agent keeps
  its own RNG stream and lookup/update counters.

Small overrides keep each adapter's run to a few thousand steps so the
whole matrix stays test-suite fast.
"""

from __future__ import annotations

import json
import pickle

import pytest

from repro.env import available_environments, build_environment


#: per-adapter overrides to keep conformance runs small
SMALL = {
    "sim": dict(accesses_per_core=600, warmup_accesses=150),
    "serve": dict(num_requests=600, warmup_requests=120),
    "cluster": dict(num_requests=600),
    "toy": dict(num_steps=1500),
}


def build_small(name: str, **extra):
    return build_environment(name, **{**SMALL.get(name, {}), **extra})


def environments():
    return available_environments()


@pytest.mark.parametrize("name", environments())
def test_env_registered_and_named(name):
    env = build_small(name)
    assert env.name == name
    assert isinstance(env.snapshot_kind, str) and env.snapshot_kind


@pytest.mark.parametrize("name", environments())
def test_env_run_twice_identical(name):
    r1 = build_small(name).run()
    r2 = build_small(name).run()
    assert r1 == r2


@pytest.mark.parametrize("name", environments())
def test_env_result_is_portable(name):
    result = build_small(name).run()
    assert isinstance(result, dict)
    assert pickle.loads(pickle.dumps(result)) == result
    assert json.loads(json.dumps(result)) == json.loads(json.dumps(result))


@pytest.mark.parametrize("name", environments())
def test_env_seed_changes_result(name):
    base = build_small(name).run()
    other = build_small(name, seed=12345).run()
    assert base != other


@pytest.mark.parametrize("name", environments())
def test_env_snapshot_full_restore_roundtrip(name):
    env = build_small(name)
    env.run()
    states = env.agent_states()
    assert isinstance(states, list) and states
    for state in states:
        assert state["kind"] == env.snapshot_kind

    fresh = build_small(name)
    fresh.load_agent_states(states, keep_rng=False)
    assert fresh.agent_states() == states


@pytest.mark.parametrize("name", environments())
def test_env_snapshot_hot_swap_keeps_rng(name):
    env = build_small(name)
    env.run()
    states = env.agent_states()

    fresh = build_small(name)
    before = fresh.agent_states()
    fresh.load_agent_states(states, keep_rng=True)
    after = fresh.agent_states()

    for prev, now, snap in zip(before, after, states):
        # Q-values transferred from the snapshot...
        assert now["qtable"]["values"] == snap["qtable"]["values"]
        # ...but the live agent kept its own RNG stream and counters.
        assert now["rng_state"] == prev["rng_state"]
        assert now["qtable"]["lookups"] == prev["qtable"]["lookups"]
        assert now["qtable"]["updates"] == prev["qtable"]["updates"]


@pytest.mark.parametrize("name", environments())
def test_env_snapshot_restore_resumes_identically(name):
    """Restore-then-inspect: a restored twin exposes the same state."""
    env = build_small(name)
    env.run()
    states = env.agent_states()

    twin = build_small(name)
    twin.load_agent_states(states, keep_rng=False)
    assert twin.agent_states() == env.agent_states()


@pytest.mark.parametrize("name", environments())
def test_env_restore_rejects_wrong_state_counts(name):
    """One state broadcasts, one per agent restores; any other count
    (none included) raises ValueError and leaves the agents untouched."""
    env = build_small(name)
    env.run()
    states = env.agent_states()

    fresh = build_small(name)
    before = fresh.agent_states()
    for wrong in ([], states + states[:1]):
        with pytest.raises(ValueError, match="agent state"):
            fresh.load_agent_states(wrong)
        assert fresh.agent_states() == before


# --- engine integration ---------------------------------------------------------


def test_env_job_spec_roundtrip():
    from repro.env.jobs import ENV_CODE_VERSION, env_job

    job = env_job("toy", num_steps=1500, seed=3)
    assert job.env_params == (("num_steps", 1500), ("seed", 3))
    assert job.canonical() == (
        "env",
        ENV_CODE_VERSION,
        "toy",
        (("num_steps", 1500), ("seed", 3)),
    )
    assert hash(job) == hash(env_job("toy", seed=3, num_steps=1500))
    assert job.label == "env:toy"


def test_env_job_executes_like_direct_run():
    from repro.env.jobs import env_job
    from repro.experiments import execute_job

    job = env_job("toy", num_steps=1500, seed=3)
    direct = build_environment("toy", num_steps=1500, seed=3).run()
    assert execute_job(job) == direct
    assert job.execute() == direct


def test_env_toy_plan_parallel_bit_identical():
    """env_toy through the engine: --jobs 1 == --jobs 2, byte for byte."""
    from repro.env.experiments import env_toy_plan
    from repro.experiments.engine import Engine
    from repro.experiments.runner import ExperimentScale

    tiny = ExperimentScale(accesses_per_core=4000, warmup_per_core=1000)
    serial = Engine(workers=1).run_plan(env_toy_plan(tiny))
    parallel = Engine(workers=2).run_plan(env_toy_plan(tiny))
    assert serial == parallel
    assert serial.experiment_id == "env_toy"
    assert serial.rows
