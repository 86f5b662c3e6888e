"""Unit tests for multi-granularity mining (paper contribution (1)).

These pin the per-level surface of :class:`repro.HierarchicalMiner`
(construction contract, per-level params, result shape) plus the
``dist_interval`` rounding of :func:`repro.resolve_level_params`: the
upper bound ceils, so no season distance legal at the fine level is lost
at a coarse one.
"""

from dataclasses import replace

import pytest

from repro import ESTPM, HierarchicalMiner, SymbolicDatabase, resolve_level_params
from repro.exceptions import ConfigError
from repro.transform import build_sequence_database


@pytest.fixture(scope="module")
def dsyb():
    # 15 repetitions of a 12-granule motif: seasonal at several scales.
    return SymbolicDatabase.from_rows(
        {"A": "111000110000" * 15, "B": "110000111000" * 15}
    )


def level_params(ratio, dist_interval, n_sequences=60):
    """The hierarchy defaults resolved against one level."""
    return resolve_level_params(
        ratio=ratio,
        n_sequences=n_sequences,
        max_period_pct=0.4,
        min_density_pct=0.5,
        dist_interval=dist_interval,
        min_season=2,
    )


class TestLevelMining:
    def test_levels_are_mined_finest_first(self, dsyb):
        miner = HierarchicalMiner(
            dsyb, ratios=[6, 3], dist_interval=(0, 120), min_season=2
        )
        levels = miner.mine().levels
        assert [level.ratio for level in levels] == [3, 6]
        assert levels[0].n_sequences == 60
        assert levels[1].n_sequences == 30

    def test_params_resolved_per_level(self, dsyb):
        miner = HierarchicalMiner(
            dsyb, ratios=[3, 6], max_period_pct=5.0, min_density_pct=5.0,
            dist_interval=(6, 60), min_season=2,
        )
        levels = miner.mine().levels
        by_ratio = {level.ratio: level.params for level in levels}
        assert by_ratio[3].max_period == 3  # ceil(60 * 5%)
        assert by_ratio[6].max_period == 2  # ceil(30 * 5%)
        assert by_ratio[3].dist_interval == (2, 20)
        assert by_ratio[6].dist_interval == (1, 10)

    def test_each_level_matches_direct_mining(self, dsyb):
        miner = HierarchicalMiner(
            dsyb, ratios=[3], dist_interval=(0, 120), min_season=2
        )
        level = miner.mine().levels[0]
        direct = ESTPM(build_sequence_database(dsyb, 3), level.params).mine()
        assert level.result.pattern_keys() == direct.pattern_keys()

    def test_coarser_levels_find_patterns_too(self, dsyb):
        miner = HierarchicalMiner(
            dsyb, ratios=[3, 6, 12], dist_interval=(0, 600), min_season=1
        )
        levels = miner.mine().levels
        assert all(len(level.result) > 0 for level in levels)


class TestDistIntervalRounding:
    def test_upper_bound_is_ceiled(self):
        # A season distance of 10 fine granules (= 3.33 coarse at ratio
        # 3) is valid at the fine level, so the coarse upper bound
        # rounds up instead of silently rejecting it.
        assert level_params(3, (0, 10)).dist_interval == (0, 4)

    def test_lower_bound_still_floors(self):
        assert level_params(3, (7, 10)).dist_interval == (2, 4)

    def test_exact_divisions_are_unchanged(self):
        assert level_params(3, (6, 60)).dist_interval == (2, 20)

    def test_ceil_never_loses_coarse_patterns(self, dsyb):
        # The ceiled interval is a superset of the floored one, so every
        # pattern a floored upper bound finds survives the ceil.
        dseq = build_sequence_database(dsyb, 6)
        ceiled = level_params(6, (0, 45), n_sequences=len(dseq))
        floored = replace(ceiled, dist_interval=(0, 45 // 6))
        assert ceiled.dist_interval == (0, 8)
        fixed = ESTPM(dseq, ceiled).mine()
        legacy = ESTPM(dseq, floored).mine()
        assert legacy.pattern_keys() <= fixed.pattern_keys()


class TestValidation:
    def test_empty_ratios_rejected(self, dsyb):
        with pytest.raises(ConfigError):
            HierarchicalMiner(dsyb, ratios=[])

    def test_duplicate_ratios_rejected(self, dsyb):
        with pytest.raises(ConfigError):
            HierarchicalMiner(dsyb, ratios=[3, 3])

    def test_too_coarse_ratio_rejected(self, dsyb):
        miner = HierarchicalMiner(dsyb, ratios=[100], min_season=1)
        with pytest.raises(ConfigError):
            miner.mine()
