"""Declarative serve jobs for the parallel experiment engine.

A :class:`ServeJob` is to the serving layer what
:class:`~repro.experiments.jobspec.SimJob` is to the simulator: a
frozen, hashable, entirely self-describing spec.  Workload, policy,
store geometry, client concurrency and every RNG seed live *in the
spec*, so a job executes identically inline, in a ``--jobs N`` worker
process, or on a disk-cache replay — the engine schedules, dedups and
memoizes serve jobs exactly like simulation jobs (it dispatches on
``job.execute()``; see :func:`repro.experiments.jobspec.execute_job`).

Runtime assembly is delegated to :mod:`repro.serve.config`: a job is
the *schedulable identity*, its :meth:`ServeJob.service_config` is the
*runtime spec*, and :func:`repro.serve.service.run_configured` does the
rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .config import ServiceConfig, build_resilience_config
from .metrics import ServeMetrics
from .service import run_configured
from .workloads import build_workload

#: Bump when serve semantics change in a way that must invalidate
#: previously cached serve results (the serve analogue of
#: :data:`repro.experiments.jobspec.CODE_VERSION`).
SERVE_CODE_VERSION = "serve-2"


@dataclass(frozen=True)
class ServeJob:
    """One schedulable serve run: (workload, policy, store geometry)."""

    workload: str
    policy: str
    num_requests: int
    warmup_requests: int
    capacity_bytes: int
    num_segments: int
    num_clients: int = 8
    seed: int = 0
    workload_params: Tuple[Tuple[str, object], ...] = ()
    policy_params: Tuple[Tuple[str, object], ...] = ()
    checkpoint_every: int = 0
    #: fault model (FaultConfig.params()); empty = no injection
    fault_params: Tuple[Tuple[str, object], ...] = ()
    #: degradation policy (ResilienceConfig.params()); empty = default
    #: resilience when faults are injected, ResilienceConfig.none() otherwise
    resilience_params: Tuple[Tuple[str, object], ...] = ()

    @property
    def label(self) -> str:
        suffix = " +faults" if self.fault_params else ""
        return f"serve:{self.workload} {self.policy}{suffix}"

    def canonical(self) -> Tuple:
        """Stable literal-only identity (cache key + dedup key)."""
        return (
            "serve",
            SERVE_CODE_VERSION,
            self.workload,
            self.workload_params,
            self.policy,
            self.policy_params,
            self.num_requests,
            self.warmup_requests,
            self.capacity_bytes,
            self.num_segments,
            self.num_clients,
            self.seed,
            self.checkpoint_every,
            self.fault_params,
            self.resilience_params,
        )

    def service_config(self) -> ServiceConfig:
        """The runtime spec this job describes (see serve/config.py)."""
        return ServiceConfig.from_params(
            capacity_bytes=self.capacity_bytes,
            num_segments=self.num_segments,
            policy=self.policy,
            policy_params=self.policy_params,
            num_clients=self.num_clients,
            warmup_requests=self.warmup_requests,
            checkpoint_every=self.checkpoint_every,
            seed=self.seed,
            workload_name=self.workload,
            fault_params=self.fault_params,
            resilience_params=self.resilience_params,
        )

    def build_policy(self):
        """Fresh policy instance, RNG-seeded from this spec.

        Mirrors :class:`SimJob`'s discipline: learned policies derive
        their exploration RNG purely from (spec seed, policy name), so
        two jobs differing only in seed train differently, and the
        same job always trains identically.
        """
        return self.service_config().build_policy()

    def build_resilience(self):
        """ResilienceConfig from the spec (see
        :func:`repro.serve.config.build_resilience_config`)."""
        return build_resilience_config(self.resilience_params)

    def execute(self, obs=None) -> ServeMetrics:
        """Run this job from its spec alone (pure given the spec).

        ``obs`` is an optional :class:`repro.obs.ObsConfig`; when given,
        the run records a telemetry session and exports its artifacts
        under a label derived from this spec's fingerprint.  The
        returned metrics are identical either way.
        """
        total = self.num_requests + self.warmup_requests
        requests = build_workload(
            self.workload, total, seed=self.seed, **dict(self.workload_params)
        )
        session = None
        if obs is not None:
            import hashlib

            digest = hashlib.sha256(
                repr(self.canonical()).encode()
            ).hexdigest()[:10]
            session = obs.session(f"serve-{self.workload}-{self.policy}-{digest}")
        metrics = run_configured(
            requests, self.service_config(), obs=session
        )
        if session is not None:
            session.export()
        return metrics
