"""Classic object-cache policies behind one ``ServePolicy`` interface.

The :class:`~repro.serve.store.ObjectStore` is policy-agnostic: it owns
capacity accounting and the segment dictionaries, and delegates every
judgement call — admit or bypass, which object to evict, what to do on
a hit — to a :class:`ServePolicy`.  The CHROME serve agent
(:mod:`repro.serve.agent`) implements this same interface, so learned
and classic policies are interchangeable everywhere (experiments,
benchmarks, the asyncio service).

Baselines:

* ``lru``    — evict the least-recently-used object (admission-blind);
* ``lfu``    — evict the least-frequently-used (ties oldest-first);
* ``gdsf``   — Greedy-Dual-Size-Frequency: priority ``L + freq *
  cost(size)/size`` with an aging clock ``L`` per segment, the classic
  size-aware web-cache policy;
* ``s3fifo`` — a small/main FIFO split with a ghost list: one-hit
  wonders die in the small queue, re-referenced objects are promoted,
  recently evicted keys re-admit straight to main (S3-FIFO-style).

Every policy is deterministic given the request order — no wall-clock,
no unseeded RNG — which is what lets serve results flow through the
parallel engine bit-identically.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import TYPE_CHECKING, Callable, Deque, Dict, List, Set

from .knobs import unknown_name

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import CachedObject
    from .workloads import Request


class ServePolicy:
    """Admission/eviction/hit hooks the object store consults."""

    name = "base"

    def __init__(self) -> None:
        self.num_segments = 0
        self.segment_capacity = 0

    def attach(self, num_segments: int, segment_capacity: int) -> None:
        """Called once by the store before any traffic."""
        self.num_segments = num_segments
        self.segment_capacity = segment_capacity

    # --- judgement calls ------------------------------------------------------

    def admit(self, req: "Request", seg_idx: int) -> bool:
        """Miss path: admit the fetched object, or serve-and-drop?"""
        return True

    def on_admit(self, req: "Request", obj: "CachedObject", seg_idx: int) -> None:
        """The object was inserted (set policy metadata, e.g. EPV)."""

    def on_hit(self, req: "Request", obj: "CachedObject", seg_idx: int) -> None:
        """The object was served from cache."""

    def select_victim(
        self, segment: Dict[int, "CachedObject"], seg_idx: int
    ) -> int:
        """Key of the object to evict (segment is never empty)."""
        raise NotImplementedError

    def on_evict(self, obj: "CachedObject", seg_idx: int) -> None:
        """The object was removed to make room."""

    def telemetry(self) -> dict:
        return {}


class LRUServePolicy(ServePolicy):
    """Evict the coldest object; admit everything."""

    name = "lru"

    def select_victim(self, segment: Dict[int, "CachedObject"], seg_idx: int) -> int:
        best_key = -1
        best_touch = None
        for key, obj in segment.items():
            if best_touch is None or obj.last_touch < best_touch:
                best_key = key
                best_touch = obj.last_touch
        return best_key


class LFUServePolicy(ServePolicy):
    """Evict the least-frequently-used object (ties oldest-first)."""

    name = "lfu"

    def select_victim(self, segment: Dict[int, "CachedObject"], seg_idx: int) -> int:
        best_key = -1
        best = None
        for key, obj in segment.items():
            rank = (obj.freq, obj.last_touch)
            if best is None or rank < best:
                best_key = key
                best = rank
        return best_key


class GDSFServePolicy(ServePolicy):
    """Greedy-Dual-Size-Frequency with a per-segment aging clock.

    Priority ``H = L + freq * cost(size) / size``; eviction takes the
    minimum-H object and advances ``L`` to that H, so long-untouched
    objects age out no matter their frequency.  The default cost model
    is byte-proportional (origin egress), which reduces H to
    ``L + freq`` — frequency with aging — while ``cost="unit"`` gives
    the small-object-favouring variant that maximizes object hit ratio.
    """

    name = "gdsf"

    def __init__(self, cost: str = "bytes") -> None:
        super().__init__()
        if cost not in ("bytes", "unit"):
            raise ValueError(f"unknown GDSF cost model {cost!r}")
        self._unit_cost = cost == "unit"
        self._clock: List[float] = []

    def attach(self, num_segments: int, segment_capacity: int) -> None:
        super().attach(num_segments, segment_capacity)
        self._clock = [0.0] * num_segments

    def _priority(self, obj: "CachedObject", seg_idx: int) -> float:
        cost = 1.0 if self._unit_cost else float(obj.size)
        return self._clock[seg_idx] + obj.freq * cost / obj.size

    def on_admit(self, req: "Request", obj: "CachedObject", seg_idx: int) -> None:
        obj.priority = self._priority(obj, seg_idx)

    def on_hit(self, req: "Request", obj: "CachedObject", seg_idx: int) -> None:
        obj.priority = self._priority(obj, seg_idx)

    def select_victim(self, segment: Dict[int, "CachedObject"], seg_idx: int) -> int:
        best_key = -1
        best = None
        for key, obj in segment.items():
            rank = (obj.priority, obj.last_touch)
            if best is None or rank < best:
                best_key = key
                best = rank
        clock = segment[best_key].priority
        if clock > self._clock[seg_idx]:
            self._clock[seg_idx] = clock
        return best_key


class S3FIFOServePolicy(ServePolicy):
    """Small/main FIFO split with a ghost list (S3-FIFO-style).

    New objects enter the *small* queue (a byte-budgeted probation,
    default 10% of the segment).  A small-queue object evicted without
    a hit goes to the *ghost* set; if its key misses again soon, it is
    admitted directly to *main*.  Queue heads with hits are recycled
    (moved to main / rotated) instead of evicted, so one-hit wonders
    are filtered without sacrificing reuse.
    """

    name = "s3fifo"

    def __init__(self, small_fraction: float = 0.10, ghost_entries: int = 4096) -> None:
        super().__init__()
        self._small_fraction = small_fraction
        self._ghost_entries = ghost_entries
        self._small: List[Deque[int]] = []
        self._main: List[Deque[int]] = []
        self._ghost: List[OrderedDict] = []
        self._small_bytes: List[int] = []
        self._in_small: List[Set[int]] = []

    def attach(self, num_segments: int, segment_capacity: int) -> None:
        super().attach(num_segments, segment_capacity)
        self._small = [deque() for _ in range(num_segments)]
        self._main = [deque() for _ in range(num_segments)]
        self._ghost = [OrderedDict() for _ in range(num_segments)]
        self._small_bytes = [0] * num_segments
        self._in_small = [set() for _ in range(num_segments)]

    def on_admit(self, req: "Request", obj: "CachedObject", seg_idx: int) -> None:
        ghost = self._ghost[seg_idx]
        if obj.key in ghost:
            del ghost[obj.key]
            self._main[seg_idx].append(obj.key)
        else:
            self._small[seg_idx].append(obj.key)
            self._small_bytes[seg_idx] += obj.size
            self._in_small[seg_idx].add(obj.key)

    def _remember_ghost(self, key: int, seg_idx: int) -> None:
        ghost = self._ghost[seg_idx]
        ghost[key] = True
        while len(ghost) > self._ghost_entries:
            ghost.popitem(last=False)

    def select_victim(self, segment: Dict[int, "CachedObject"], seg_idx: int) -> int:
        small = self._small[seg_idx]
        main = self._main[seg_idx]
        in_small = self._in_small[seg_idx]
        small_budget = int(self.segment_capacity * self._small_fraction)
        # Prefer evicting from small once it exceeds its probation
        # budget (or main is empty); recycle re-referenced heads.
        for _ in range(len(small) + len(main) + 1):
            use_small = small and (
                self._small_bytes[seg_idx] > small_budget or not main
            )
            queue = small if use_small else main
            if not queue:
                queue = small if small else main
                use_small = queue is small
            key = queue.popleft()
            obj = segment.get(key)
            if obj is None:  # stale id (already evicted via resize etc.)
                if use_small and key in in_small:
                    in_small.discard(key)
                continue
            if use_small:
                self._small_bytes[seg_idx] -= obj.size
                in_small.discard(key)
                if obj.freq > 1:
                    main.append(key)  # survived probation
                    continue
                self._remember_ghost(key, seg_idx)
                return key
            if obj.freq > 1:
                obj.freq = 1  # demote and give one more round
                main.append(key)
                continue
            return key
        # Pathological fallback: everything was recycled — evict the
        # oldest main entry outright.
        queue = main if main else small
        key = queue.popleft()
        if key in in_small:
            in_small.discard(key)
            obj = segment.get(key)
            if obj is not None:
                self._small_bytes[seg_idx] -= obj.size
        return key


# --- registry -----------------------------------------------------------------

PolicyBuilder = Callable[..., ServePolicy]

SERVE_POLICIES: Dict[str, PolicyBuilder] = {
    "lru": LRUServePolicy,
    "lfu": LFUServePolicy,
    "gdsf": GDSFServePolicy,
    "s3fifo": S3FIFOServePolicy,
}


def register_serve_policy(name: str, builder: PolicyBuilder) -> None:
    """Register a named serve-policy builder (used by the agent module)."""
    SERVE_POLICIES[name] = builder


def make_serve_policy(name: str, **params) -> ServePolicy:
    try:
        builder = SERVE_POLICIES[name]
    except KeyError:
        raise KeyError(unknown_name("serve policy", name, SERVE_POLICIES)) from None
    return builder(**params)
