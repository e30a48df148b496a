"""Declarative serve jobs for the parallel experiment engine.

A :class:`ServeJob` is to the serving layer what
:class:`~repro.experiments.jobspec.SimJob` is to the simulator: a
frozen, hashable, entirely self-describing spec.  Workload, policy,
store geometry, client concurrency and every RNG seed live *in the
spec*, so a job executes identically inline, in a ``--jobs N`` worker
process, or on a disk-cache replay — the engine schedules, dedups and
memoizes serve jobs exactly like simulation jobs (it dispatches on
``job.execute()``; see :func:`repro.experiments.jobspec.execute_job`).

:class:`BaseJob` holds what the serve, cluster and ops jobs share: the
fields of one replayed request stream, ``canonical()``,
``service_config()`` and ``execute()``.  Jobs hold sub-configs as frozen
configs, and building a job checks every value (:mod:`.knobs`).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields
from typing import ClassVar, List, Optional, Tuple

from .config import ServiceConfig
from .faults import FaultConfig
from .knobs import Checked, Params
from .metrics import ServeMetrics
from .resilience import ResilienceConfig
from .service import run_configured
from .workloads import Request, build_workload

#: Bump when serve semantics change in a way that must invalidate
#: previously cached serve results (the serve analogue of
#: :data:`repro.experiments.jobspec.CODE_VERSION`).
SERVE_CODE_VERSION = "serve-3"


@dataclass(frozen=True)
class BaseJob(Checked):
    """One request stream replayed through a service-shaped system."""

    #: the canonical namespace and cache version of a job kind
    kind: ClassVar[str]
    code_version: ClassVar[str]

    workload: str
    policy: str
    num_requests: int
    warmup_requests: int
    capacity_bytes: int
    num_segments: int
    num_clients: int = 8
    seed: int = 0
    workload_params: Params = ()
    policy_params: Params = ()
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        self.service_config()  # checks the shared fields, once, on the config
        super().__post_init__()

    def canonical(self) -> Tuple:
        """Stable literal-only identity (cache key + dedup key): the
        kind, the code version, then every field in declaration order."""
        values = tuple(getattr(self, f.name) for f in fields(self))
        return (self.kind, self.code_version) + values

    def service_config(self) -> ServiceConfig:
        """The runtime spec this job describes (see serve/config.py)."""
        return ServiceConfig(
            capacity_bytes=self.capacity_bytes,
            num_segments=self.num_segments,
            policy=self.policy,
            policy_params=self.policy_params,
            num_clients=self.num_clients,
            warmup_requests=self.warmup_requests,
            checkpoint_every=self.checkpoint_every,
            seed=self.seed,
            workload_name=self.workload,
            # Only the jobs that model them declare these fields.
            faults=getattr(self, "faults", None),
            resilience=getattr(self, "resilience", None),
        )

    def run(self, requests: List[Request], obs):
        raise NotImplementedError

    def execute(self, obs=None):
        """Run this job from its spec alone (pure given the spec).

        ``obs`` is an optional :class:`repro.obs.ObsConfig`; when given,
        the run records a telemetry session and exports its artifacts
        under a label derived from this spec's fingerprint.  The
        returned result is identical either way.
        """
        requests = build_workload(
            self.workload,
            self.num_requests + self.warmup_requests,
            seed=self.seed,
            **dict(self.workload_params),
        )
        session = None
        if obs is not None:
            digest = hashlib.sha256(repr(self.canonical()).encode()).hexdigest()[:10]
            session = obs.session(f"{self.kind}-{self.workload}-{self.policy}-{digest}")
        result = self.run(requests, session)
        if session is not None:
            session.export()
        return result


@dataclass(frozen=True)
class ServeJob(BaseJob):
    """One schedulable serve run: (workload, policy, store geometry)."""

    kind: ClassVar[str] = "serve"
    code_version: ClassVar[str] = SERVE_CODE_VERSION

    #: fault model; None = no injection
    faults: Optional[FaultConfig] = None
    #: degradation policy; None = ResilienceConfig() when faults are
    #: injected, ResilienceConfig.none() otherwise
    resilience: Optional[ResilienceConfig] = None

    @property
    def label(self) -> str:
        suffix = " +faults" if self.faults is not None else ""
        return f"serve:{self.workload} {self.policy}{suffix}"

    def run(self, requests: List[Request], obs) -> ServeMetrics:
        return run_configured(requests, self.service_config(), obs=obs)
