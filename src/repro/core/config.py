"""CHROME configuration: hyper-parameters, geometry, and actions.

The defaults reproduce Table II (tuned reward values and
hyper-parameters) and Table III (structure geometry: Q-table with
2 features x 4 sub-tables x 2048 entries x 16 bits; EQ with 64 queues
x 28 entries).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Tuple

from .features import DEFAULT_FEATURES
from .rewards import RewardConfig

# --- action space (Sec. IV-B) ------------------------------------------------
#
# On a miss CHROME picks one of four actions: bypass the LLC, or insert
# with one of three Eviction Priority Values.  On a hit it updates the
# block's EPV to one of the three levels (bypass is illegal).  The
# 2-bit encoding matches the EQ entry layout of Table III.

ACTION_BYPASS = 0
ACTION_EPV_LOW = 1  # EPV 0: keep longest
ACTION_EPV_MED = 2  # EPV 1
ACTION_EPV_HIGH = 3  # EPV 2: first in line for eviction (EPV_H)

NUM_ACTIONS = 4
#: legal-action orderings double as the arg-max tie-break preference:
#: a cold state (all-equal optimistic Q) behaves like LRU — insert at
#: low eviction priority — and only bypasses after positive evidence.
MISS_ACTIONS: Tuple[int, ...] = (
    ACTION_EPV_LOW,
    ACTION_EPV_MED,
    ACTION_EPV_HIGH,
    ACTION_BYPASS,
)
HIT_ACTIONS: Tuple[int, ...] = (ACTION_EPV_LOW, ACTION_EPV_MED, ACTION_EPV_HIGH)

#: EPV assigned by each non-bypass action.
ACTION_TO_EPV = {ACTION_EPV_LOW: 0, ACTION_EPV_MED: 1, ACTION_EPV_HIGH: 2}
EPV_MAX = 2  # highest eviction priority (2-bit EPV in Table III)

ACTION_NAMES = {
    ACTION_BYPASS: "bypass",
    ACTION_EPV_LOW: "epv_low",
    ACTION_EPV_MED: "epv_med",
    ACTION_EPV_HIGH: "epv_high",
}


@dataclass(frozen=True)
class ChromeConfig:
    """Complete CHROME parameterization.

    Attributes mirror the paper:
        alpha/gamma/epsilon: tuned SARSA hyper-parameters (Table II).
        features: state-vector composition (Sec. IV-A; Fig. 15 ablates).
        num_subtables/subtable_entries: Q-table slicing (Sec. V-C).
        sampled_sets/eq_fifo_size: EQ organization (Sec. V-D; Table VII
            sweeps ``eq_fifo_size``).
        q_fixed_point_bits: Q-values are 16-bit fixed point in hardware;
            we quantize to the same grid for fidelity.
    """

    alpha: float = 0.0498
    gamma: float = 0.3679
    epsilon: float = 0.001
    rewards: RewardConfig = field(default_factory=RewardConfig)
    features: Tuple[str, ...] = DEFAULT_FEATURES
    num_subtables: int = 4
    subtable_entries: int = 2048  # rows x actions per sub-table
    sampled_sets: int = 64
    eq_fifo_size: int = 28
    q_fixed_point_fraction_bits: int = 6
    q_value_bits: int = 16
    seed: int = 0x5EED

    @property
    def optimistic_q(self) -> float:
        """Initial Q-value, 1/(1-gamma) — optimism drives early
        exploration (Sec. V-B)."""
        return 1.0 / (1.0 - self.gamma)

    @property
    def rows_per_subtable(self) -> int:
        rows = self.subtable_entries // NUM_ACTIONS
        if rows * NUM_ACTIONS != self.subtable_entries:
            raise ValueError("subtable_entries must be a multiple of NUM_ACTIONS")
        return rows

    def as_nchrome(self) -> "ChromeConfig":
        """N-CHROME (Sec. VII-C): identical workflow, concurrency-blind
        rewards."""
        return replace(self, rewards=self.rewards.without_concurrency_awareness())
