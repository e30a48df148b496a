"""The fault injector's window memo against a memo-free reference.

``FaultInjector._window`` keeps one slot per fault class holding the
starts of windows ``k`` and ``k - 1``.  :class:`ReferenceInjector`
hashes both starts on every call, as the injector did before the memo,
so any answer that depends on the memo's state shows up as a mismatch.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serve import faults
from repro.serve.faults import FaultConfig, FaultInjector

HORIZON_MS = 400.0
TENANTS = (0, 1)
#: each windowed fault class: its period and duration fields, and its salt
CLASSES = (
    ("outage_every_ms", "outage_duration_ms", faults._SALT_OUTAGE),
    ("burst_every_ms", "burst_duration_ms", faults._SALT_BURST),
    ("brownout_every_ms", "brownout_duration_ms", faults._SALT_BROWNOUT),
)


class ReferenceInjector(FaultInjector):
    """The injector with the loop form of ``_window``: no memo."""

    def _window(self, now_ms, every_ms, duration_ms, salt):
        if every_ms <= 0.0 or duration_ms <= 0.0:
            return False, float("inf")
        span = max(0.0, every_ms - duration_ms)
        since_end = float("inf")
        k = int(now_ms // every_ms)
        for kk in (k, k - 1):
            if kk < 0:
                continue
            start = kk * every_ms + self._unit(salt, kk) * span
            end = start + duration_ms
            if start <= now_ms < end:
                return True, 0.0
            if now_ms >= end:
                since_end = min(since_end, now_ms - end)
        return False, since_end


@st.composite
def windows(draw):
    """A period (zero or not) and a duration below, at or above it."""
    every = draw(st.sampled_from((0.0, 7.0, 25.0)) | st.floats(1.0, 120.0))
    duration = draw(
        st.sampled_from((0.0, every, 2 * every))
        | st.floats(0.0, max(1.0, 1.5 * every))
    )
    return every, duration


@st.composite
def fault_configs(draw):
    (oe, od), (be, bd), (we, wd) = (draw(windows()) for _ in CLASSES)
    return FaultConfig(
        seed=draw(st.integers(0, 1 << 16)),
        error_rate=draw(st.sampled_from((0.0, 0.1))),
        spike_rate=draw(st.sampled_from((0.0, 0.2))),
        burst_every_ms=be,
        burst_duration_ms=bd,
        burst_error_rate=0.6,
        outage_every_ms=oe,
        outage_duration_ms=od,
        recovery_ramp_ms=draw(st.sampled_from((0.0, 3.0, 40.0))),
        brownout_tenant=draw(st.sampled_from((-1,) + TENANTS)),
        brownout_every_ms=we,
        brownout_duration_ms=wd,
    )


def window_edges(config: FaultConfig) -> list:
    """Period starts, window starts and window ends of the first windows."""
    ref = ReferenceInjector(config)
    edges = [0.0]
    for every_name, duration_name, salt in CLASSES:
        every, duration = getattr(config, every_name), getattr(config, duration_name)
        if every <= 0.0 or duration <= 0.0:
            continue
        span = max(0.0, every - duration)
        for k in range(4):
            start = k * every + ref._unit(salt, k) * span
            edges += [k * every, start, start + duration]
    return edges


@given(config=fault_configs(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_window_memo_matches_the_reference(config, data):
    memo = FaultInjector(config)
    assert not memo._starts  # construction builds nothing
    ref = ReferenceInjector(config)
    times = data.draw(
        st.lists(
            st.sampled_from(window_edges(config)) | st.floats(0.0, HORIZON_MS),
            min_size=1,
            max_size=20,
        )
    )
    # k = 0 first, then the drawn order: forward jumps and returns to
    # earlier times, as a retry running ahead of the next request does.
    for seq, now in enumerate([0.0] + times):
        assert memo.outage_state(now) == ref.outage_state(now)
        for tenant in TENANTS:
            assert memo.degraded(tenant, now) == ref.degraded(tenant, now)
            for attempt in (1, 2):
                got = memo.decide(seq, attempt, tenant, now)
                assert got == ref.decide(seq, attempt, tenant, now)
    assert len(memo._starts) <= len(CLASSES)  # one slot per fault class
