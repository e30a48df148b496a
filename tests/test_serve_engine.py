"""Serve experiments on the parallel engine: scheduling, dedup,
disk caching and bit-identical parallelism for non-simulation jobs."""

import pytest

from repro.cli import main
from repro.experiments import (
    Engine,
    ExperimentScale,
    ResultCache,
    available_experiments,
    execute_job,
    get_plan,
    job_fingerprint,
)
from repro.serve.experiments import (
    FAULT_POLICIES,
    SERVE_PLANS,
    SERVE_POLICIES_COMPARED,
    serve_capacity,
    serve_zipf_plan,
)
from repro.serve.jobs import SERVE_CODE_VERSION, ServeJob
from repro.serve.metrics import ServeMetrics

TINY = ExperimentScale(
    machine_scale=1 / 64,
    accesses_per_core=320,
    warmup_per_core=60,
    workload_limit=2,
    hetero_mixes=2,
)


def _serve_job(**overrides) -> ServeJob:
    spec = dict(
        workload="zipf_scan",
        policy="lru",
        num_requests=300,
        warmup_requests=50,
        capacity_bytes=1 << 20,
        num_segments=32,
        num_clients=3,
        seed=1,
    )
    spec.update(overrides)
    return ServeJob(**spec)


# --- registration -------------------------------------------------------------


def test_serve_experiments_registered_eagerly():
    ids = available_experiments()
    for experiment_id in SERVE_PLANS:
        assert experiment_id in ids
        assert get_plan(experiment_id) is not None


def test_serve_plans_compare_every_policy():
    for experiment_id, plan_builder in SERVE_PLANS.items():
        plan = plan_builder(TINY)
        if experiment_id == "serve_faults":
            # chaos plan: (baseline, learned) x (naive, resilient)
            assert len(plan.jobs) == 2 * len(FAULT_POLICIES)
            assert {job.policy for job in plan.jobs} == set(FAULT_POLICIES)
            assert all(job.faults is not None for job in plan.jobs)
            modes = {job.resilience for job in plan.jobs}
            assert len(modes) == 2  # naive control vs resilient config
        else:
            assert len(plan.jobs) == len(SERVE_POLICIES_COMPARED)
            assert {job.policy for job in plan.jobs} == set(
                SERVE_POLICIES_COMPARED
            )
            assert all(job.faults is None for job in plan.jobs)


def test_serve_capacity_scales_with_machine_scale():
    big = serve_capacity(ExperimentScale(machine_scale=1.0))
    small = serve_capacity(ExperimentScale(machine_scale=1 / 64))
    assert big > small
    assert small >= 32 * (96 << 10)  # never below the floor


# --- engine dispatch ----------------------------------------------------------


def test_execute_job_dispatches_serve_jobs():
    metrics = execute_job(_serve_job())
    assert isinstance(metrics, ServeMetrics)
    assert metrics.requests == 300


def test_execute_job_rejects_unknown_job_kinds():
    with pytest.raises(TypeError, match="execute"):
        execute_job(object())


def test_serve_job_execute_is_pure():
    job = _serve_job(policy="chrome")
    first, second = execute_job(job), execute_job(job)
    assert first.hits == second.hits
    assert repr(first.p99_latency_ms) == repr(second.p99_latency_ms)
    assert first.telemetry == second.telemetry


# --- determinism: serial vs parallel -----------------------------------------


def test_serve_zipf_bit_identical_serial_vs_parallel():
    serial = Engine(workers=1).run_plan(serve_zipf_plan(TINY))
    parallel = Engine(workers=2).run_plan(serve_zipf_plan(TINY))
    assert serial == parallel


def test_engine_dedups_identical_serve_jobs():
    engine = Engine(workers=1)
    job = _serve_job()
    results = engine.run_jobs([job, job, job])
    assert len(results) == 1
    assert engine.stats.executed == 1


# --- on-disk cache ------------------------------------------------------------


def test_warm_cache_executes_zero_serve_jobs(tmp_path):
    cold = Engine(workers=1, cache_dir=str(tmp_path))
    cold_result = cold.run_plan(serve_zipf_plan(TINY))
    assert cold.stats.executed == len(SERVE_POLICIES_COMPARED)

    warm = Engine(workers=1, cache_dir=str(tmp_path))
    warm_result = warm.run_plan(serve_zipf_plan(TINY))
    assert warm.stats.executed == 0
    assert warm.stats.disk_hits == cold.stats.executed
    assert warm_result == cold_result


def test_serve_result_cache_roundtrip(tmp_path):
    cache = ResultCache(tmp_path)
    job = _serve_job()
    assert cache.get(job) is None
    metrics = execute_job(job)
    cache.put(job, metrics)
    replay = cache.get(job)
    assert replay is not None
    assert replay.hits == metrics.hits
    assert repr(replay.mean_latency_ms) == repr(metrics.mean_latency_ms)


def test_serve_fingerprint_sensitive_to_every_field():
    base = _serve_job()
    variants = [
        _serve_job(workload="phases"),
        _serve_job(policy="chrome"),
        _serve_job(num_requests=301),
        _serve_job(warmup_requests=51),
        _serve_job(capacity_bytes=(1 << 20) + 1),
        _serve_job(num_segments=64),
        _serve_job(num_clients=4),
        _serve_job(seed=2),
        _serve_job(workload_params=(("alpha", 1.1),)),
        _serve_job(policy_params=(("small_fraction", 0.2),), policy="s3fifo"),
        _serve_job(checkpoint_every=100),
    ]
    fingerprints = {job_fingerprint(j) for j in [base, *variants]}
    assert len(fingerprints) == len(variants) + 1


def test_serve_fingerprint_namespaced_from_sim_jobs():
    assert _serve_job().canonical()[0] == "serve"
    assert _serve_job().canonical()[1] == SERVE_CODE_VERSION


# --- CLI ----------------------------------------------------------------------


def test_cli_run_serve_zipf_parallel_smoke(capsys):
    code = main(
        [
            "run",
            "serve_zipf",
            "--jobs",
            "2",
            "--quiet",
            "--scale",
            str(1 / 64),
            "--accesses",
            "300",
            "--warmup",
            "50",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "byte_hit%" in out
    assert "chrome" in out and "lru" in out
    assert "CHROME byte hit ratio" in out  # the vs-LRU note


def test_cli_serve_cache_dir_warm_rerun(tmp_path, capsys):
    argv = [
        "run",
        "serve_phases",
        "--jobs",
        "1",
        "--cache-dir",
        str(tmp_path),
        "--scale",
        str(1 / 64),
        "--accesses",
        "250",
        "--warmup",
        "40",
    ]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert main(argv) == 0
    second = capsys.readouterr()
    split = "[serve_phases took"
    assert second.out.split(split)[0] == first.out.split(split)[0]
    assert "0 simulated" in second.err
