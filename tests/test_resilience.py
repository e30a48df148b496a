"""The circuit breaker against a reference model, and the cost of the
resilience stages when they are off."""

from __future__ import annotations

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, rule

from repro.serve.config import ServiceConfig
from repro.serve.resilience import (
    BREAKER_STATE_NAMES,
    CircuitBreaker,
    ResilienceConfig,
    ResilienceState,
)
from repro.serve.service import Backend, build_service
from repro.serve.workloads import build_workload


class BreakerModel:
    """The breaker's contract as a plain state machine."""

    def __init__(self, threshold: int, open_ms: float, probes: int) -> None:
        self.threshold, self.open_ms, self.probes = threshold, open_ms, probes
        self.state, self.until = "closed", 0.0
        self.failures = self.left = self.opens = 0

    def allow(self, now: float):
        if self.threshold == 0:
            return True, False
        if self.state == "open" and now >= self.until:
            self.state, self.left = "half-open", self.probes
        if self.state == "open" or (self.state == "half-open" and self.left == 0):
            return False, False
        if self.state == "half-open":
            self.left -= 1
            return True, True
        return True, False

    def on_success(self) -> None:
        self.failures = 0
        if self.state == "half-open":
            self.state = "closed"

    def on_failure(self, now: float) -> bool:
        if self.threshold == 0:
            return False
        self.failures += 1
        if self.state != "half-open" and self.failures < self.threshold:
            return False
        self.state, self.until, self.failures = "open", now + self.open_ms, 0
        self.opens += 1
        return True


STEPS = st.sampled_from((0.0, 2.5, 5.0)) | st.floats(0.0, 30.0)


class BreakerMachine(RuleBasedStateMachine):
    """Random call sequences at non-decreasing virtual times."""

    @initialize(
        threshold=st.integers(0, 4),
        open_ms=st.sampled_from((0.0, 5.0, 10.0)) | st.floats(0.0, 50.0),
        probes=st.integers(1, 3),
    )
    def build(self, threshold, open_ms, probes):
        self.now = 0.0
        self.breaker = CircuitBreaker(
            ResilienceConfig(
                breaker_failure_threshold=threshold,
                breaker_open_ms=open_ms,
                breaker_half_open_probes=probes,
            )
        )
        self.model = BreakerModel(threshold, open_ms, probes)

    @rule(dt=STEPS, calls=st.integers(1, 4))
    def allow(self, dt, calls):
        """``calls`` requests arrive at the same virtual time."""
        self.now += dt
        for _ in range(calls):
            assert self.breaker.allow(self.now) == self.model.allow(self.now)

    @rule()
    def on_success(self):
        self.breaker.on_success()
        self.model.on_success()

    @rule(dt=STEPS)
    def on_failure(self, dt):
        self.now += dt
        assert self.breaker.on_failure(self.now) == self.model.on_failure(self.now)

    @invariant()
    def same_state(self):
        b, m = self.breaker, self.model
        assert BREAKER_STATE_NAMES[b.state] == m.state
        assert (b.opens, b.consecutive_failures, b.probes_left) == (
            m.opens, m.failures, m.left
        )


BreakerMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=25, deadline=None
)
TestBreakerMatchesModel = BreakerMachine.TestCase


def test_stages_that_are_off_make_no_calls(monkeypatch):
    """Under ``ResilienceConfig.none()`` a healthy miss never reaches
    shedding, the breaker or stale serving (obs stays off: its sampler
    reads the backend's outstanding count)."""

    def off_stage(*args, **kwargs):
        raise AssertionError("a resilience stage that is off was called")

    for owner, names in (
        (Backend, ("outstanding",)),
        (ResilienceState, ("should_shed", "stale_hit", "forget_stale")),
        (CircuitBreaker, ("allow", "on_success", "on_failure")),
    ):
        for name in names:
            monkeypatch.setattr(owner, name, off_stage)
    config = ServiceConfig(
        capacity_bytes=256 << 10,
        num_segments=16,
        workload_name="multitenant",
        resilience=ResilienceConfig.none(),
    )
    service = build_service(config)
    requests = build_workload("multitenant", 600, seed=5)
    missed = {r.tenant for seq, r in enumerate(requests) if not service.process(seq, r)}
    assert missed and service.finalize().requests == len(requests)
    # every tenant that missed still reports a closed breaker
    assert service.resilience.breaker_states() == dict.fromkeys(missed, "closed")
