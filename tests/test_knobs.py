"""Checked config fields: every value is checked when a config is built.

Two contracts:

* **the repository's own specs pass** — every job of every registered
  plan, at the default scale and at the CI scale, builds its
  :class:`ServiceConfig` (and, through the job's ``__post_init__``,
  every sub-config and job field) without error;
* **a bad value fails where it is written** — with a ``ValueError``
  that names the class, the field, the value and the allowed range, or
  suggests the registered name that was meant.
"""

from __future__ import annotations

import re

import pytest

from repro.cluster.jobs import ClusterJob
from repro.experiments.registry import PLANS
from repro.experiments.runner import ExperimentScale
from repro.ops.config import OpsConfig
from repro.serve.config import LatencyConfig, ServiceConfig
from repro.serve.faults import FaultConfig
from repro.serve.resilience import ResilienceConfig

#: the scale CI smokes every experiment at
CI_SCALE = ExperimentScale(
    machine_scale=0.015625, accesses_per_core=300, warmup_per_core=60
)


def test_every_registered_plan_builds_checked_configs():
    checked = 0
    for scale in (ExperimentScale(), CI_SCALE):
        for plan_builder in PLANS.values():
            for job in plan_builder(scale).jobs:
                if hasattr(job, "service_config"):
                    assert isinstance(job.service_config(), ServiceConfig)
                    checked += 1
    assert checked > 0


_GEOMETRY = dict(capacity_bytes=1 << 20, num_segments=64)
_FLEET = dict(
    workload="zipf_scan",
    policy="lru",
    num_requests=100,
    warmup_requests=0,
    **_GEOMETRY,
)


def _case(field, build, kwargs, message):
    return pytest.param(build, kwargs, message, id=field)


@pytest.mark.parametrize(
    "build, kwargs, message",
    [
        _case(
            "FaultConfig.error_rate", FaultConfig, dict(error_rate=1.5),
            "FaultConfig.error_rate=1.5 is outside [0, 1]",
        ),
        _case(
            "FaultConfig.outage_every_ms", FaultConfig, dict(outage_every_ms=-3),
            "FaultConfig.outage_every_ms=-3 is outside [0, inf)",
        ),
        _case(
            "ResilienceConfig.max_attempts", ResilienceConfig, dict(max_attempts=0),
            "ResilienceConfig.max_attempts=0 is outside [1, inf)",
        ),
        _case(
            "OpsConfig.window", OpsConfig, dict(window=0),
            "OpsConfig.window=0 is outside [1, inf)",
        ),
        _case(
            "OpsConfig.trip_after", OpsConfig, dict(trip_after=0),
            "OpsConfig.trip_after=0 is outside [1, inf)",
        ),
        _case(
            "OpsConfig.ewma_beta", OpsConfig, dict(ewma_beta=2.0),
            "OpsConfig.ewma_beta=2.0 is outside (0, 1]",
        ),
        _case(
            "OpsConfig.min_byte_hit_ewma", OpsConfig, dict(min_byte_hit_ewma=-0.5),
            "OpsConfig.min_byte_hit_ewma=-0.5 is outside [0, 1] (or -1 for off)",
        ),
        _case(
            "LatencyConfig.inter_arrival_ms", LatencyConfig, dict(inter_arrival_ms=0),
            "LatencyConfig.inter_arrival_ms=0 is outside (0, inf)",
        ),
        _case(
            "ServiceConfig.capacity_bytes", ServiceConfig,
            dict(_GEOMETRY, capacity_bytes=-1),
            "ServiceConfig.capacity_bytes=-1 is outside [1, inf)",
        ),
        _case(
            "ServiceConfig.num_segments", ServiceConfig,
            dict(_GEOMETRY, num_segments=0),
            "ServiceConfig.num_segments=0 is outside [1, inf)",
        ),
        _case(
            "ClusterJob.num_shards", ClusterJob, dict(_FLEET, num_shards=0),
            "ClusterJob.num_shards=0 is outside [1, inf)",
        ),
        _case(
            "ClusterJob.kill_shard", ClusterJob, dict(_FLEET, kill_shard=7),
            "ClusterJob.kill_shard=7 is out of range (fleet has 4 shards)",
        ),
        _case(
            "ClusterJob.kill_shard-edge", ClusterJob, dict(_FLEET, kill_shard=4),
            "ClusterJob.kill_shard=4 is out of range (fleet has 4 shards)",
        ),
        _case(
            "ServiceConfig.policy", ServiceConfig, dict(_GEOMETRY, policy="chrmoe"),
            "ServiceConfig.policy: unknown serve policy 'chrmoe'",
        ),
        _case(
            "ServiceConfig.policy-suggestion", ServiceConfig,
            dict(_GEOMETRY, policy="chrmoe"),
            "(did you mean 'chrome'?)",
        ),
        _case(
            "OpsConfig.challenger_policy", OpsConfig, dict(challenger_policy="lur"),
            "(did you mean 'lru'?)",
        ),
        _case(
            "from_params-fault-key", ServiceConfig.from_params,
            dict(_GEOMETRY, fault_params=(("eror_rate", 0.1),)),
            "(did you mean 'error_rate'?)",
        ),
    ],
)
def test_bad_values_fail_at_construction(build, kwargs, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build(**kwargs)
