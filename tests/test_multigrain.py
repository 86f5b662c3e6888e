"""Tests for the hierarchical multi-granularity engine (repro.multigrain).

The engine's hard guarantee: every level of a hierarchical run is
equivalent (``results_equivalent``) to mining that level standalone with
a fresh sequence mapping -- asserted here on all four seed datasets,
for E-STPM and A-STPM -- and to the brute-force :class:`NaiveSTPM`
oracle on that mapping.
"""

import gc
import sys
import weakref

import pytest

from repro import ESTPM, PruningConfig, SymbolicDatabase
from repro.baselines import NaiveSTPM
from repro.core.approximate import ASTPM
from repro.core.results import MiningStats, results_equivalent
from repro.core.seasonality import is_candidate, is_season_candidate
from repro.datasets import load_dataset
from repro.exceptions import ConfigError
from repro.granularity import GranularityHierarchy, TimeDomain
from repro.multigrain import HierarchicalMiner
from repro.multigrain import engine
from repro.transform import build_sequence_database
from repro.transform.sequence_db import TemporalSequenceDatabase

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
    # so the apriori gate prunes it at coarse levels -- the NoPrune
    # regression surface.
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

    @pytest.mark.parametrize(
        "pruning",
        [PruningConfig.none(), PruningConfig.transitivity_only()],
        ids=["none", "transitivity-only"],
    )
    def test_fold_with_apriori_disabled_matches_standalone(
        self, sparse_prunable_dsyb, pruning
    ):
        # Regression: with apriori off, ESTPM builds instance tables for
        # *every* event, so the coarse level must build every granule row.
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
        standalone = ESTPM(
            build_sequence_database(sparse_prunable_dsyb, 4),
            coarse.params,
            pruning,
        ).mine()
        assert results_equivalent(coarse.result, standalone)

    def test_single_event_levels_build_no_row(self, sparse_prunable_dsyb):
        hierarchical = HierarchicalMiner(
            sparse_prunable_dsyb,
            ratios=[1, 2, 4],
            dist_interval=(0, 240),
            min_season=3,
            min_density_pct=1.0,
            max_pattern_length=1,
        ).mine()
        for level in hierarchical.levels[1:]:
            assert level.derived_from == 1
            assert level.n_granules_skipped == level.n_sequences

    def test_each_level_gates_each_event_once(self, sparse_prunable_dsyb, monkeypatch):
        # One gate per event per level: the level's step 2.1, on the
        # folded supports.  Every module-level binding of the gate is
        # patched, so a second gate anywhere in the job would be counted.
        calls = []

        def counting(support, params):
            calls.append(support)
            return is_season_candidate(support, params)

        for module in list(sys.modules.values()):
            if (
                module is not None
                and module.__name__.startswith("repro")
                and getattr(module, "is_season_candidate", None) is is_season_candidate
            ):
                monkeypatch.setattr(module, "is_season_candidate", counting)
        hierarchical = HierarchicalMiner(
            sparse_prunable_dsyb,
            ratios=[1, 2, 4],
            dist_interval=(0, 240),
            min_season=3,
            min_density_pct=1.0,
            max_pattern_length=1,
        ).mine()
        n_events = [
            len(build_sequence_database(sparse_prunable_dsyb, ratio).event_support())
            for ratio in hierarchical.ratios
        ]
        assert len(calls) == sum(n_events)
        # The coarse gate does reject events here (B:1 at ratio 4).
        coarse = hierarchical.level(4).result.stats
        assert coarse.n_candidate_events < coarse.n_events_scanned == n_events[-1]

    def test_coarse_gate_matches_standalone_step21(self):
        # B:1 occurs in four bursts of 4 fine granules: 2 coarse granules
        # each at ratio 2, where maxPeriod 1 and minDensity 3 leave
        # maxSeason = 8/3 >= 2 but no window of 3 granules (C = 0).
        bursts = ["0"] * 120
        for start in (0, 40, 80, 112):
            bursts[start : start + 4] = "1111"
        dsyb = SymbolicDatabase.from_rows(
            {"A": "111111000000" * 10, "B": "".join(bursts)}
        )
        coarse = HierarchicalMiner(
            dsyb,
            ratios=[1, 2],
            max_period_pct=1.0,
            min_density_pct=5.0,
            dist_interval=(0, 120),
            min_season=2,
            max_pattern_length=2,
        ).mine().level(2)
        params = coarse.params
        assert (params.max_period, params.min_density) == (1, 3)
        rebuilt = build_sequence_database(dsyb, 2)
        support = rebuilt.event_support()["B:1"]
        assert is_candidate(len(support), params)
        assert not is_season_candidate(support, params)
        hlh1 = ESTPM(rebuilt, params)._mine_single_events([], MiningStats())
        assert "B:1" not in hlh1.candidates
        assert coarse.result.stats.n_candidate_events == len(hlh1.candidates)
        assert results_equivalent(coarse.result, ESTPM(rebuilt, params).mine())

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


class TestLevelLifetimes:
    def test_each_coarse_level_is_freed_once_mined(self, motif_dsyb, monkeypatch):
        # Each level is derived when its turn comes and nothing else
        # holds it: when a level's miner starts, no coarse database other
        # than the one it mines is still alive.
        folded = []
        coarsen = TemporalSequenceDatabase.coarsen

        def recording(self, factor):
            coarse = coarsen(self, factor)
            folded.append(weakref.ref(coarse))
            return coarse

        others_alive = []

        class CheckingESTPM(ESTPM):
            def mine(self):
                gc.collect()
                others_alive.append(
                    sum(
                        1 for ref in folded
                        if ref() is not None and ref() is not self.dseq
                    )
                )
                return super().mine()

        monkeypatch.setattr(TemporalSequenceDatabase, "coarsen", recording)
        monkeypatch.setattr(engine, "ESTPM", CheckingESTPM)
        hierarchical = HierarchicalMiner(
            motif_dsyb, ratios=[1, 2, 3, 4], dist_interval=(0, 120), min_season=2
        ).mine()
        assert [level.derived_from for level in hierarchical] == [None, 1, 1, 1]
        assert len(folded) == 3
        assert others_alive == [0, 0, 0, 0]


class TestScreening:
    """A coarse level's one gate, its step 2.1, screens events on the
    supports folded from the finest level, so the fold must be exact."""

    def test_screening_is_exact_for_events(self, sparse_prunable_dsyb):
        fine = build_sequence_database(sparse_prunable_dsyb, 1)
        coarse = build_sequence_database(sparse_prunable_dsyb, 4)
        params = HierarchicalMiner(
            sparse_prunable_dsyb, ratios=[4], min_season=3
        ).params_for(4, len(coarse))
        derived = fine.coarsen(4)
        folded = derived.event_support()
        # Folded, not scanned: reading the supports builds no row.
        assert derived.unbuilt_rows() == len(coarse)
        recomputed = coarse.event_support()
        assert set(folded) == set(recomputed)
        for event, support in folded.items():
            assert support == recomputed[event]
            assert is_season_candidate(support, params) == is_season_candidate(
                recomputed[event], params
            )


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

    def test_too_coarse_ratio_rejected_at_mine_time(self, motif_dsyb):
        miner = HierarchicalMiner(motif_dsyb, ratios=[100], min_season=1)
        with pytest.raises(ConfigError):
            miner.mine()
