"""Tests for the hierarchical multi-granularity engine (repro.multigrain).

The engine's hard guarantee: every level of a hierarchical run is
equivalent (``results_equivalent``) to mining that level standalone with
a fresh sequence mapping -- asserted here on all four seed datasets,
for E-STPM and A-STPM, and for the fold and rebuild strategies -- and
to the brute-force :class:`NaiveSTPM` oracle on that mapping.
"""

import pytest

from repro import ESTPM, PruningConfig, SymbolicDatabase
from repro.baselines import NaiveSTPM
from repro.core.approximate import ASTPM
from repro.core.results import results_equivalent
from repro.datasets import load_dataset
from repro.exceptions import ConfigError, TransformError
from repro.granularity import GranularityHierarchy, TimeDomain
from repro.multigrain import HierarchicalMiner, screen_level
from repro.transform import build_sequence_database

#: Per-dataset thresholds keeping the tiny profiles fast *and* fruitful
#: (every dataset finds patterns at some level under these settings).
DATASET_SETTINGS = {
    "RE": {"min_density_pct": 1.0, "min_season": 4},
    "SC": {"min_density_pct": 1.0, "min_season": 3},
    "INF": {"min_density_pct": 1.0, "min_season": 4},
    "HFM": {"min_density_pct": 1.0, "min_season": 4},
}


def hierarchy_miner(dataset, **overrides):
    """A three-level miner over a dataset's native/2x/4x granularities."""
    settings = {**DATASET_SETTINGS[dataset.name], **overrides}
    return HierarchicalMiner(
        dataset.dsyb,
        ratios=[dataset.ratio, dataset.ratio * 2, dataset.ratio * 4],
        max_period_pct=0.4,
        dist_interval=(
            dataset.dist_interval[0] * dataset.ratio,
            dataset.dist_interval[1] * dataset.ratio,
        ),
        max_pattern_length=2,
        **settings,
    )


@pytest.fixture(scope="module")
def motif_dsyb():
    # 15 repetitions of a 12-granule motif: seasonal at several scales.
    return SymbolicDatabase.from_rows(
        {"A": "111000110000" * 15, "B": "110000111000" * 15}
    )


@pytest.fixture(scope="module")
def sparse_prunable_dsyb():
    # B:1 occurs in exactly four early fine granules and nowhere after,
    # so the apriori gate prunes it at coarse levels -- the screening /
    # NoPrune regression surface.
    return SymbolicDatabase.from_rows(
        {
            "A": "101010101010" * 10,
            "B": "111100000000" + "0" * 108,
        }
    )


class TestLevelParity:
    @pytest.mark.parametrize("name", sorted(DATASET_SETTINGS))
    def test_every_level_matches_standalone_mining(self, name):
        dataset = load_dataset(name, "tiny")
        hierarchical = hierarchy_miner(dataset).mine()
        assert hierarchical.ratios == [
            dataset.ratio, dataset.ratio * 2, dataset.ratio * 4,
        ]
        for level in hierarchical:
            standalone = ESTPM(
                build_sequence_database(dataset.dsyb, level.ratio), level.params
            ).mine()
            assert results_equivalent(level.result, standalone), (
                f"{name} level {level.ratio} diverged from standalone mining"
            )

    @pytest.mark.parametrize("name", sorted(DATASET_SETTINGS))
    def test_every_level_matches_naive_oracle(self, name):
        dataset = load_dataset(name, "tiny")
        for level in hierarchy_miner(dataset).mine():
            oracle = NaiveSTPM(
                build_sequence_database(dataset.dsyb, level.ratio), level.params
            ).mine()
            assert results_equivalent(level.result, oracle), (
                f"{name} level {level.ratio} diverged from NaiveSTPM"
            )

    def test_coarse_levels_are_fold_derived(self):
        dataset = load_dataset("INF", "tiny")
        hierarchical = hierarchy_miner(dataset).mine()
        assert hierarchical.finest.derived_from is None
        assert all(
            level.derived_from == dataset.ratio
            for level in hierarchical.levels[1:]
        )

    def test_astpm_levels_match_standalone_astpm(self):
        dataset = load_dataset("INF", "tiny")
        hierarchical = hierarchy_miner(dataset, miner="approximate").mine()
        for level in hierarchical:
            standalone = ASTPM(dataset.dsyb, level.ratio, level.params).mine()
            assert results_equivalent(level.result, standalone)

    def test_rebuild_strategy_matches_fold(self):
        dataset = load_dataset("HFM", "tiny")
        fold = hierarchy_miner(dataset).mine()
        rebuild = hierarchy_miner(dataset, strategy="rebuild").mine()
        assert fold.ratios == rebuild.ratios
        for fold_level, rebuild_level in zip(fold, rebuild):
            assert results_equivalent(fold_level.result, rebuild_level.result)
        assert all(level.derived_from is None for level in rebuild)

    @pytest.mark.parametrize(
        "pruning",
        [PruningConfig.none(), PruningConfig.transitivity_only()],
        ids=["none", "transitivity-only"],
    )
    def test_fold_with_apriori_disabled_matches_standalone(
        self, sparse_prunable_dsyb, pruning
    ):
        # Regression: with apriori off, ESTPM builds instance tables for
        # *every* event, so the fold must materialize every granule row
        # (the screening gate is exactly what NoPrune disables).
        hierarchical = HierarchicalMiner(
            sparse_prunable_dsyb,
            ratios=[1, 4],
            dist_interval=(0, 240),
            min_season=3,
            min_density_pct=1.0,
            max_pattern_length=2,
            pruning=pruning,
        ).mine()
        coarse = hierarchical.level(4)
        assert coarse.n_granules_skipped == 0
        assert coarse.n_events_screened == 0
        standalone = ESTPM(
            build_sequence_database(sparse_prunable_dsyb, 4),
            coarse.params,
            pruning,
        ).mine()
        assert results_equivalent(coarse.result, standalone)

    def test_non_divisible_ratio_falls_back_to_rebuild(self, motif_dsyb):
        hierarchical = HierarchicalMiner(
            motif_dsyb, ratios=[2, 3], dist_interval=(0, 120), min_season=2
        ).mine()
        by_ratio = {level.ratio: level for level in hierarchical}
        assert by_ratio[3].derived_from is None  # 3 is not a multiple of 2
        for level in hierarchical:
            standalone = ESTPM(
                build_sequence_database(motif_dsyb, level.ratio), level.params
            ).mine()
            assert results_equivalent(level.result, standalone)


class TestScreening:
    def test_folded_gate_screens_events_before_mining(self, sparse_prunable_dsyb):
        hierarchical = HierarchicalMiner(
            sparse_prunable_dsyb,
            ratios=[1, 4],
            dist_interval=(0, 240),
            min_season=3,
            min_density_pct=1.0,
        ).mine()
        coarse = hierarchical.level(4)
        assert coarse.n_events_screened > 0
        standalone = ESTPM(
            build_sequence_database(sparse_prunable_dsyb, 4), coarse.params
        ).mine()
        assert results_equivalent(coarse.result, standalone)

    def test_screened_granules_stay_unmaterialized(self, sparse_prunable_dsyb):
        dseq = build_sequence_database(sparse_prunable_dsyb, 1)
        params = HierarchicalMiner(
            sparse_prunable_dsyb, ratios=[4], min_season=3, min_density_pct=1.0
        ).params_for(4, len(dseq) // 4)
        screening = screen_level(
            dseq.event_support(), 4, len(dseq) // 4, params, 4
        )
        assert screening.n_screened_out > 0
        derived = dseq.coarsen(4, granules=screening.granules)
        skipped = sorted(
            set(range(1, len(derived) + 1)) - set(screening.granules)
        )
        if skipped:
            with pytest.raises(TransformError):
                derived.sequence_at(skipped[0]).events()
        # Materialized granules equal the standalone rows exactly.
        rebuilt = build_sequence_database(sparse_prunable_dsyb, 4)
        for position in sorted(screening.granules):
            assert derived.sequence_at(position) == rebuilt.sequence_at(position)

    def test_screening_is_exact_for_events(self, sparse_prunable_dsyb):
        fine = build_sequence_database(sparse_prunable_dsyb, 1)
        coarse = build_sequence_database(sparse_prunable_dsyb, 4)
        params = HierarchicalMiner(
            sparse_prunable_dsyb, ratios=[4], min_season=3
        ).params_for(4, len(coarse))
        screening = screen_level(
            fine.event_support(), 4, len(coarse), params, 4
        )
        recomputed = coarse.event_support()
        assert set(screening.supports) == set(recomputed)
        for event, folded in screening.supports.items():
            assert folded == recomputed[event]


class TestMultiGranularityResult:
    @pytest.fixture(scope="class")
    def hierarchical(self, motif_dsyb):
        return HierarchicalMiner(
            motif_dsyb, ratios=[3, 6, 12], dist_interval=(0, 600), min_season=1
        ).mine()

    def test_levels_sorted_finest_first(self, hierarchical):
        assert hierarchical.ratios == [3, 6, 12]
        assert hierarchical.finest.ratio == 3

    def test_persistence_maps_patterns_to_their_levels(self, hierarchical):
        persistence = hierarchical.persistence()
        for level in hierarchical:
            for sp in level.result.patterns:
                assert level.ratio in persistence[sp.pattern]

    def test_persistent_patterns_span_all_requested_levels(self, hierarchical):
        across_all = hierarchical.persistent_patterns()
        assert across_all  # the motif is seasonal at every scale
        keys_by_ratio = {
            level.ratio: level.result.pattern_keys() for level in hierarchical
        }
        for pattern in across_all:
            assert all(pattern in keys for keys in keys_by_ratio.values())
        coarse_pair = hierarchical.persistent_patterns(6, 12)
        assert set(across_all) <= set(coarse_pair)

    def test_exclusive_patterns_live_at_one_level_only(self, hierarchical):
        persistence = hierarchical.persistence()
        for pattern in hierarchical.exclusive_patterns(12):
            assert persistence[pattern] == (12,)

    def test_seasonal_trajectory_tracks_one_pattern(self, hierarchical):
        pattern = hierarchical.persistent_patterns()[0]
        trajectory = hierarchical.seasonal_trajectory(pattern)
        assert sorted(trajectory) == [3, 6, 12]
        assert all(sp.pattern == pattern for sp in trajectory.values())

    def test_unknown_level_rejected(self, hierarchical):
        with pytest.raises(ConfigError):
            hierarchical.level(5)
        with pytest.raises(ConfigError):
            hierarchical.persistent_patterns(3, 5)

    def test_describe_mentions_every_level(self, hierarchical):
        text = hierarchical.describe()
        for ratio in hierarchical.ratios:
            assert f"ratio {ratio:4d}" in text


class TestFromHierarchy:
    def test_ratios_follow_the_hierarchy(self, motif_dsyb):
        domain = TimeDomain(motif_dsyb.n_instants, unit="5min")
        hierarchy = GranularityHierarchy.from_widths(
            domain, [1, 3, 6], names=["5min", "15min", "30min"]
        )
        miner = HierarchicalMiner.from_hierarchy(
            motif_dsyb, hierarchy, dist_interval=(0, 600), min_season=1
        )
        assert sorted(miner.ratios) == [1, 3, 6]
        hierarchical = miner.mine()
        assert hierarchical.ratios == [1, 3, 6]


class TestValidation:
    def test_empty_ratios_rejected(self, motif_dsyb):
        with pytest.raises(ConfigError):
            HierarchicalMiner(motif_dsyb, ratios=[])

    def test_duplicate_ratios_rejected(self, motif_dsyb):
        with pytest.raises(ConfigError):
            HierarchicalMiner(motif_dsyb, ratios=[3, 3])

    def test_nonpositive_ratio_rejected(self, motif_dsyb):
        with pytest.raises(ConfigError):
            HierarchicalMiner(motif_dsyb, ratios=[0, 3])

    def test_unknown_miner_kind_rejected(self, motif_dsyb):
        with pytest.raises(ConfigError):
            HierarchicalMiner(motif_dsyb, ratios=[3], miner="quantum")

    def test_unknown_strategy_rejected(self, motif_dsyb):
        with pytest.raises(ConfigError):
            HierarchicalMiner(motif_dsyb, ratios=[3], strategy="clone")

    def test_too_coarse_ratio_rejected_at_mine_time(self, motif_dsyb):
        miner = HierarchicalMiner(motif_dsyb, ratios=[100], min_season=1)
        with pytest.raises(ConfigError):
            miner.mine()
