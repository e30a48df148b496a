"""The unified serve runtime configuration: one frozen spec per service.

:class:`ServiceConfig` holds every knob of the serving layer (latency
model, fault model, resilience policy, capacity, warmup, client count,
...) in a single frozen dataclass:

* **one object describes one service end to end** — store geometry,
  policy (by name + literal params, so the config stays picklable and
  hashable), driver concurrency, warmup, checkpointing, the virtual-
  time :class:`LatencyConfig`, and the optional
  :class:`~repro.serve.faults.FaultConfig` /
  :class:`~repro.serve.resilience.ResilienceConfig`;
* **builders live with the config** — :meth:`ServiceConfig.build_policy`
  reproduces the job-spec RNG-seeding discipline,
  :meth:`ServiceConfig.from_params` is the one spec-tuple entry, and
  :meth:`ServiceConfig.for_shard` derives a per-shard variant (fresh
  policy/fault seeds, same shape) so a cluster builds N shards from
  one config;
* **every value is checked when it is built** (:mod:`.knobs`);
* **the service reads it alone** — :class:`~repro.serve.service.CacheService`
  takes latency, faults, resilience and warmup from its config, and
  :func:`~repro.serve.service.build_service` is the one place a
  config becomes a store, recorder and service.

:class:`LatencyConfig` lives here (:mod:`repro.serve.service`
re-exports it) so the config module has no import cycle with the
service it describes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

from ..sim.address import mix_hash
from .faults import FaultConfig
from .knobs import Checked, Params, knob, named, unknown_name
from .policies import SERVE_POLICIES, ServePolicy, make_serve_policy
from .resilience import ResilienceConfig

#: policies whose exploration RNG is seeded from the config seed
SEEDED_POLICIES = frozenset({"chrome"})


@dataclass(frozen=True)
class LatencyConfig(Checked):
    """Virtual-time latency model (milliseconds / bytes-per-ms)."""

    hit_base_ms: float = knob(0.1)
    hit_bytes_per_ms: float = knob(4 * 1024 * 1024, open_lo=True)  # ~4 GB/s from local cache
    backend_base_ms: float = knob(6.0)
    backend_bytes_per_ms: float = knob(256 * 1024, open_lo=True)  # ~256 MB/s origin path
    queue_penalty_ms: float = knob(0.25)  # per outstanding backend fetch
    inter_arrival_ms: float = knob(0.5, open_lo=True)

    def hit_latency(self, size: int) -> float:
        return self.hit_base_ms + size / self.hit_bytes_per_ms


@dataclass(frozen=True)
class ServiceConfig(Checked):
    """Everything one :class:`~repro.serve.service.CacheService` run needs.

    Frozen and literal-only (policies by name, sub-configs as frozen
    dataclasses), so a config can sit inside job specs, cross process
    boundaries, and key caches exactly like the job dataclasses do.
    """

    capacity_bytes: int = knob(lo=1)
    num_segments: int = knob(lo=1)
    policy: str = named("lru", "serve policy", SERVE_POLICIES)
    policy_params: Params = ()
    num_clients: int = knob(8, 1)
    warmup_requests: int = knob(0)
    checkpoint_every: int = knob(0)
    seed: int = knob(0)
    workload_name: str = ""
    latency: Optional[LatencyConfig] = None
    faults: Optional[FaultConfig] = None
    #: None = ResilienceConfig() under faults, ResilienceConfig.none() otherwise
    resilience: Optional[ResilienceConfig] = None

    @classmethod
    def from_params(
        cls,
        *,
        fault_params: Params = (),
        resilience_params: Params = (),
        **kwargs,
    ) -> "ServiceConfig":
        """Build from spec tuples: the one place ``((name, value), ...)``
        becomes a :class:`FaultConfig` or :class:`ResilienceConfig`.

        An empty tuple leaves that sub-config ``None`` (no faults /
        the service's default resilience); a misspelt key raises
        ``ValueError`` naming the nearest field.  Every other keyword
        maps straight onto a :class:`ServiceConfig` field.
        """

        def build(sub, params: Params):
            names = [f.name for f in fields(sub)]
            for key, _ in params:
                if key not in names:
                    raise ValueError(f"{sub.__name__}: {unknown_name('field', key, names)}")
            return sub(**dict(params)) if params else None

        return cls(
            faults=build(FaultConfig, fault_params),
            resilience=build(ResilienceConfig, resilience_params),
            **kwargs,
        )

    # --- builders -----------------------------------------------------------------

    def build_policy(self) -> ServePolicy:
        """Fresh policy instance, RNG-seeded from this config.

        Mirrors the job-spec discipline: learned policies derive their
        exploration RNG purely from (config seed, policy name), so two
        configs differing only in seed train differently, and the same
        config always trains identically.
        """
        params = dict(self.policy_params)
        if self.policy in SEEDED_POLICIES:
            params.setdefault(
                "seed", mix_hash((self.seed << 8) ^ len(self.policy))
            )
        return make_serve_policy(self.policy, **params)

    def build_store(self, policy: Optional[ServePolicy] = None):
        """Fresh :class:`~repro.serve.store.ObjectStore` for this config."""
        from .store import ObjectStore

        return ObjectStore(
            self.capacity_bytes, self.num_segments, policy or self.build_policy()
        )

    # --- derivation ---------------------------------------------------------------

    def for_shard(self, shard_idx: int) -> "ServiceConfig":
        """A per-shard variant of this config (cluster shard construction).

        The shard keeps the shape (geometry, policy, latency model,
        resilience) but derives fresh seeds — its own exploration RNG
        stream and its own fault-decision stream — as pure functions of
        (config seed, shard index), so a fleet of shards never shares
        randomness yet rebuilds identically in any process.
        """
        derived_seed = mix_hash((self.seed << 20) ^ (shard_idx * 0x9E3779B9) ^ 0xC1)
        faults = self.faults
        if faults is not None:
            faults = replace(
                faults, seed=mix_hash((faults.seed << 20) ^ (shard_idx * 0x85EB) ^ 0xC2)
            )
        return replace(self, seed=derived_seed, faults=faults)

    def for_challenger(
        self,
        policy: Optional[str] = None,
        policy_params: Optional[Params] = None,
    ) -> "ServiceConfig":
        """The shadow-challenger variant of this config (ops layer).

        A challenger mirrors the champion's geometry and latency model
        but runs its own policy (or the same policy under a fresh seed
        when ``policy`` is omitted) against its own isolated store.  It
        never sees injected faults or resilience machinery — shadow
        evaluation compares *cache policies*, and the champion's fault
        stream must not leak into the challenger's reward signal.  It
        keeps no checkpoint curve either.  The derived seed is a pure
        function of the champion seed, so shadow runs rebuild
        identically in any process.
        """
        return replace(
            self,
            policy=policy if policy is not None else self.policy,
            policy_params=(
                policy_params if policy_params is not None else self.policy_params
            ),
            seed=mix_hash((self.seed << 24) ^ 0xC7A11E),
            checkpoint_every=0,
            faults=None,
            resilience=None,
        )
