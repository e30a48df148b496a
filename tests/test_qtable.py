"""Unit tests for the feature-sliced Q-table (Sec. V-C)."""

import pytest

from repro.core.config import ChromeConfig, NUM_ACTIONS
from repro.core.qtable import QTable


def _qtable(**overrides):
    from dataclasses import replace

    config = replace(ChromeConfig(), **overrides) if overrides else ChromeConfig()
    return QTable(num_features=2, config=config), config


def test_initial_q_is_optimistic():
    qt, cfg = _qtable()
    values = qt.q_values((123, 456))
    for v in values:
        assert v == pytest.approx(cfg.optimistic_q, abs=0.1)


def test_lookup_counts():
    qt, _ = _qtable()
    qt.q_values((1, 2))
    qt.q((1, 2), 0)
    assert qt.lookups == 2


def test_apply_delta_moves_q():
    qt, _ = _qtable()
    before = qt.q((1, 2), 3)
    qt.apply_delta((1, 2), 3, +2.0)
    after = qt.q((1, 2), 3)
    assert after == pytest.approx(before + 2.0, abs=0.1)


def test_delta_does_not_leak_to_other_actions():
    qt, _ = _qtable()
    before = qt.q_values((1, 2))
    qt.apply_delta((1, 2), 0, +4.0)
    after = qt.q_values((1, 2))
    assert after[0] > before[0]
    for a in range(1, NUM_ACTIONS):
        assert after[a] == pytest.approx(before[a], abs=1e-9)


def test_max_over_features():
    """Q(S,A) is the max of the per-feature Q-values (Sec. V-C)."""
    qt, _ = _qtable()
    # Boost feature 0's entry only; a state sharing feature 0 benefits.
    qt.apply_delta((100, 200), 1, +5.0)
    boosted = qt.q((100, 999), 1)  # same feature-0 value, unrelated feature-1
    baseline = qt.q((101, 999), 1)
    assert boosted > baseline


def test_quantization_to_fixed_point_grid():
    qt, cfg = _qtable()
    qt.apply_delta((1, 2), 0, 0.001)  # below one quantum per sub-table
    value = qt.q((1, 2), 0)
    quantum = 1.0 / (1 << cfg.q_fixed_point_fraction_bits)
    # Sum of 4 sub-table values, each on the grid.
    assert (value / (quantum / 1)) == pytest.approx(round(value / quantum), abs=1e-6)


def test_clamping_bounds_q_values():
    qt, cfg = _qtable()
    for _ in range(100):
        qt.apply_delta((1, 2), 0, 1e9)
    limit = (1 << (cfg.q_value_bits - 1)) / (1 << cfg.q_fixed_point_fraction_bits)
    assert qt.q((1, 2), 0) <= cfg.num_subtables * limit
    for _ in range(100):
        qt.apply_delta((1, 2), 0, -1e9)
    assert qt.q((1, 2), 0) >= -cfg.num_subtables * limit


def test_best_action_respects_legal_set():
    qt, _ = _qtable()
    qt.apply_delta((1, 2), 0, +10.0)  # action 0 is best overall
    assert qt.best_action((1, 2), legal=(0, 1, 2, 3)) == 0
    assert qt.best_action((1, 2), legal=(1, 2, 3)) in (1, 2, 3)


def test_best_action_tie_break_fixed_order():
    qt, _ = _qtable()
    assert qt.best_action((5, 6), legal=(1, 2, 3)) == 1  # all equal -> first


def test_storage_bits_matches_table_iii():
    qt, cfg = _qtable()
    # 2 features x 4 sub-tables x 2048 entries x 16 bits = 32KB
    assert qt.storage_bits() == 2 * 4 * 2048 * 16
    assert qt.storage_bits() / 8 / 1024 == 32.0


def test_rows_per_subtable_power_of_two():
    qt, cfg = _qtable()
    assert qt.rows == cfg.subtable_entries // NUM_ACTIONS == 512


def test_row_index_cache_consistency():
    qt, _ = _qtable()
    first = qt._row_indices(0xABCD)
    second = qt._row_indices(0xABCD)
    assert first == second
    assert all(0 <= r < qt.rows for r in first)


def test_different_subtables_use_different_hashes():
    qt, _ = _qtable()
    rows = qt._row_indices(0x1234)
    assert len(set(rows)) > 1  # overwhelmingly likely with 4 hashes over 512 rows


def test_snapshot_stats_fields():
    qt, _ = _qtable()
    qt.apply_delta((1, 2), 0, 1.0)
    stats = qt.snapshot_stats()
    assert stats["updates"] == 1
    assert stats["q_min"] <= stats["q_mean"] <= stats["q_max"]


def test_too_many_subtables_rejected():
    from dataclasses import replace

    with pytest.raises(ValueError):
        QTable(2, replace(ChromeConfig(), num_subtables=9))


def test_values_round_trip_through_load_values():
    qt, _ = _qtable()
    qt.apply_delta((1, 2), 0, 3.0)
    values = qt.values()
    assert len(values) == 2 * 4 * 512 * NUM_ACTIONS
    clone, _ = _qtable()
    clone.q((1, 2), 0)  # cache the rows before the load
    clone.load_values(values)
    assert clone.values() == values
    assert clone.q((1, 2), 0) == qt.q((1, 2), 0)


def test_load_values_rejects_wrong_length_untouched():
    qt, _ = _qtable()
    before = qt.values()
    for bad in (before[:-1], before + [0.0], []):
        with pytest.raises(ValueError, match=str(len(before))):
            qt.load_values(bad)
    assert qt.values() == before


def test_stats_walkers_match_sequential_reference():
    import random

    qt, _ = _qtable()
    rng = random.Random(4)
    for _ in range(500):
        qt.apply_delta((rng.randrange(1 << 17), rng.randrange(1 << 16)),
                       rng.randrange(NUM_ACTIONS), rng.uniform(-40.0, 40.0))
    values = qt.values()
    total = 0.0
    for v in values:  # the accumulation order of the old nested walk
        total += v
    stats = qt.snapshot_stats()
    assert stats["q_mean"].hex() == (total / len(values)).hex()
    assert (stats["q_min"], stats["q_max"]) == (min(values), max(values))
    lo, hi = qt._clamp
    health = qt.health_stats()
    assert health["q_entries"] == len(values)
    assert health["q_coverage"] == sum(v != qt._init_q for v in values) / len(values)
    assert health["q_saturation"] == sum(v <= lo or v >= hi for v in values) / len(values)
    assert 0.0 < health["q_coverage"] < 1.0
