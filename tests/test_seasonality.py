"""Unit + golden tests for the seasonality measures (Defs. 3.13-3.15, Eq. 1)."""

from test_property_seasonality import split_near_support_sets

from repro import MiningParams, compute_seasons, max_season
from repro.core.seasonality import (
    count_seasons,
    is_candidate,
    is_frequent_seasonal,
    is_season_candidate,
    season_distance,
)


class TestMaxSeason:
    def test_eq1(self):
        assert max_season(12, 3) == 4.0
        assert max_season(5, 2) == 2.5

    def test_candidate_gate(self, paper_params):
        # minSeason=2, minDensity=3: support 6 is candidate, 5 is not.
        assert is_candidate(6, paper_params)
        assert not is_candidate(5, paper_params)

    def test_chain_bound_is_tighter_than_near_set_bound(self, paper_params):
        # g = max(distMin 4, maxPeriod 2 + 1) = 4.  The near sets
        # {1,2,4,5,7,9,10} and {14,15} give B = 2 + 0 = 2, but after the
        # first window {1,2,4} the next must start at 8 or later, and
        # {9,10} and {14,15} hold no 3 granules with steps <= 2: C = 1.
        support = [1, 2, 4, 5, 7, 9, 10, 14, 15]
        assert split_near_support_sets(support, paper_params.max_period) == [
            [1, 2, 4, 5, 7, 9, 10], [14, 15],
        ]
        assert is_candidate(len(support), paper_params)
        assert not is_season_candidate(support, paper_params)
        # With 11 the window {9,10,11} fits: B = C = 2, and the subset
        # {1,2,4,9,10,11} has those two windows as its seasons.
        support = [1, 2, 4, 5, 7, 9, 10, 11]
        assert is_season_candidate(support, paper_params)
        assert count_seasons([1, 2, 4, 9, 10, 11], paper_params) == 2


class TestNearSupportSets:
    def test_paper_fig3(self):
        # SUP(C:1 >= D:1) = {H1,H2,H3,H7,H8,H11,H12,H14}, maxPeriod=2 ->
        # three maximal near support sets (Fig. 3).
        support = [1, 2, 3, 7, 8, 11, 12, 14]
        assert split_near_support_sets(support, max_period=2) == [
            [1, 2, 3], [7, 8], [11, 12, 14],
        ]

    def test_single_run(self):
        assert split_near_support_sets([1, 3, 5], 2) == [[1, 3, 5]]

    def test_empty(self):
        assert split_near_support_sets([], 2) == []

    def test_every_gap_splits(self):
        assert split_near_support_sets([1, 5, 9], 2) == [[1], [5], [9]]


class TestSeasonDistance:
    def test_definition(self):
        # dist = |p(last of i) - p(first of j)|.
        assert season_distance([1, 2, 3], [7, 8]) == 4
        assert season_distance([7, 8], [11, 12, 14]) == 3


class TestComputeSeasons:
    def test_paper_pattern_example(self, paper_params):
        # C:1 >= D:1: NearSUP1 {H1,H2,H3} (season), NearSUP2 {H7,H8} (too
        # sparse), NearSUP3 {H11,H12,H14} (season): 2 seasons.
        view = compute_seasons([1, 2, 3, 7, 8, 11, 12, 14], paper_params)
        assert view.n_seasons == 2
        assert view.seasons == ((1, 2, 3), (11, 12, 14))
        assert view.densities() == [3, 3]
        assert view.distances() == [8]

    def test_paper_single_event_m1(self, paper_params):
        # M:1's support forms one near support set -> one season only.
        support = [1, 2, 3, 4, 5, 6, 8, 9, 10, 11, 13]
        view = compute_seasons(support, paper_params)
        assert view.near_sets == (tuple(support),)
        assert view.n_seasons == 1
        assert not is_frequent_seasonal(support, paper_params)

    def test_paper_h9_trimming(self):
        # Sec. IV-B: for P = M:1 >= N:1, H9 is dropped from the second
        # season because dist_min = 4.
        params = MiningParams(
            max_period=2, min_density=3, dist_interval=(4, 10), min_season=2
        )
        support = [1, 3, 4, 5, 6, 9, 10, 11, 13]
        view = compute_seasons(support, params)
        assert view.seasons == ((1, 3, 4, 5, 6), (10, 11, 13))
        assert view.n_seasons == 2

    def test_chain_breaks_on_distance_above_max(self):
        params = MiningParams(
            max_period=1, min_density=2, dist_interval=(1, 3), min_season=1
        )
        # Seasons at {1,2}, {10,11}: distance 8 > dist_max=3 breaks the
        # chain; the longest chain has one season.
        view = compute_seasons([1, 2, 10, 11], params)
        assert view.n_seasons == 1

    def test_longest_chain_wins_after_break(self):
        params = MiningParams(
            max_period=1, min_density=2, dist_interval=(1, 3), min_season=1
        )
        # {1,2} | gap 18 | {20,21}, {24,25}, {28,29}: second chain longer.
        view = compute_seasons([1, 2, 20, 21, 24, 25, 28, 29], params)
        assert view.n_seasons == 3
        assert view.seasons[0] == (20, 21)

    def test_sparse_sets_do_not_break_chains(self):
        params = MiningParams(
            max_period=1, min_density=2, dist_interval=(1, 6), min_season=1
        )
        # The singleton {5} is not a season; {1,2} and {8,9} still chain.
        view = compute_seasons([1, 2, 5, 8, 9], params)
        assert view.seasons == ((1, 2), (8, 9))

    def test_fully_trimmed_set_is_skipped(self):
        params = MiningParams(
            max_period=1, min_density=2, dist_interval=(5, 20), min_season=1
        )
        # {4,5} is closer than dist_min=5 to season {1,2} -> trimmed away.
        view = compute_seasons([1, 2, 4, 5, 10, 11], params)
        assert view.seasons == ((1, 2), (10, 11))

    def test_empty_support(self, paper_params):
        view = compute_seasons([], paper_params)
        assert view.n_seasons == 0
        assert count_seasons([], paper_params) == 0

    def test_count_matches_view(self, paper_params):
        support = [1, 2, 3, 7, 8, 11, 12, 14]
        assert count_seasons(support, paper_params) == 2


class TestChainCounter:
    """The early-exit chain counter mirrors compute_seasons exactly."""

    CASES = [
        # (support, params kwargs) exercising every chain-walk branch.
        ([1, 2, 3, 7, 8, 11, 12, 14], {"max_period": 2, "min_density": 3, "dist_interval": (0, 10), "min_season": 2}),
        ([1, 2, 5, 8, 9], {"max_period": 1, "min_density": 2, "dist_interval": (0, 10), "min_season": 1}),
        ([1, 2, 4, 5, 10, 11], {"max_period": 1, "min_density": 2, "dist_interval": (5, 20), "min_season": 1}),
        # dist_max break mid-chain, then a fresh chain.
        ([1, 2, 30, 31, 33, 60, 61], {"max_period": 2, "min_density": 2, "dist_interval": (0, 5), "min_season": 1}),
        # Trimming empties a set entirely.
        ([1, 2, 3, 4, 40, 41], {"max_period": 1, "min_density": 2, "dist_interval": (3, 50), "min_season": 1}),
        ([], {"max_period": 2, "min_density": 1, "dist_interval": (0, 5), "min_season": 1}),
        ([7], {"max_period": 2, "min_density": 1, "dist_interval": (0, 5), "min_season": 1}),
    ]

    def test_counter_equals_view(self):
        for support, kwargs in self.CASES:
            params = MiningParams(**kwargs)
            expected = compute_seasons(support, params).n_seasons
            assert count_seasons(support, params) == expected, (support, kwargs)

    def test_early_exit_stops_at_threshold(self):
        params = MiningParams(
            max_period=1, min_density=1, dist_interval=(0, 5), min_season=2
        )
        support = list(range(1, 60, 3))  # many seasons available
        assert compute_seasons(support, params).n_seasons > 2
        assert count_seasons(support, params, stop_at=2) == 2

    def test_frequency_gate_equivalence(self):
        for support, kwargs in self.CASES:
            params = MiningParams(**kwargs)
            expected = compute_seasons(support, params).n_seasons >= params.min_season
            assert is_frequent_seasonal(support, params) == expected, (support, kwargs)
