"""Windowed top-k hot-key detection with replica splitting.

A handful of keys usually dominate cache traffic (the Zipf head), and
under consistent hashing each of them lands on exactly one shard — the
classic hot-partition problem.  The detector runs the textbook
mitigation, kept deterministic:

* **windowed top-k by frequency** — every ``window`` requests the
  detector closes its counting window and promotes the top ``top_k``
  keys (count >= ``min_count``) to the *hot set* for the next window.
  Tie-break is ``(-count, key)``, so the hot set is a pure function of
  the request stream, independent of dict iteration order;
* **key splitting** — a hot key stops pinning to its primary: the
  cluster rotates it across its live replica set (round-robin by
  global sequence number), so its load — and its bytes — spread over R
  shards.  Splitting trades some duplicate bytes for shard balance,
  exactly the trade real fleets make;
* **eviction tap** — :meth:`HotKeyDetector.on_evict` subscribes to
  each shard store's eviction stream (the multi-listener hook of
  :class:`~repro.serve.store.ObjectStore`) and counts hot keys
  being evicted: sustained hot evictions mean the split factor or the
  shard capacity is losing to the working set.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple


class HotKeyDetector:
    """Deterministic windowed top-k frequency tracker."""

    def __init__(
        self, window: int = 1024, top_k: int = 8, min_count: int = 16
    ) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        if top_k < 1:
            raise ValueError("top_k must be >= 1")
        self.window = window
        self.top_k = top_k
        self.min_count = min_count
        self._counts: Dict[int, int] = {}
        self._hot: FrozenSet[int] = frozenset()
        #: windows closed so far / distinct promotions (telemetry)
        self.windows = 0
        self.promotions = 0
        self.hot_evictions = 0

    def observe(self, key: int) -> None:
        """Count one request for ``key`` in the current window."""
        self._counts[key] = self._counts.get(key, 0) + 1

    def roll(self) -> Tuple[int, ...]:
        """Close the window: promote its top-k, reset the counts.

        Returns the new hot set (sorted, for stable obs rows).  Callers
        invoke this at fixed global-sequence boundaries, which is what
        keeps hot sets identical at any client count.
        """
        ranked: List[Tuple[int, int]] = sorted(
            ((count, key) for key, count in self._counts.items()
             if count >= self.min_count),
            key=lambda item: (-item[0], item[1]),
        )
        hot = frozenset(key for _, key in ranked[: self.top_k])
        self.promotions += len(hot - self._hot)
        self._hot = hot
        self._counts = {}
        self.windows += 1
        return tuple(sorted(hot))

    def is_hot(self, key: int) -> bool:
        return key in self._hot

    @property
    def hot_keys(self) -> Tuple[int, ...]:
        return tuple(sorted(self._hot))

    # --- eviction subscriber (ObjectStore.add_evict_listener) ---------------------

    def on_evict(self, obj) -> None:
        """Store eviction tap: count currently-hot keys being evicted."""
        if obj.key in self._hot:
            self.hot_evictions += 1
