"""Unit tests for the E-STPM miner beyond the golden example."""

import pytest

from repro import ESTPM, MiningParams, PruningConfig, SymbolicDatabase, build_sequence_database
from repro.core.hlh import HLH1, GroupEntry, HLHk
from repro.core.instance_index import EMPTY_COLUMN, InstanceColumn
from repro.core.pattern import single_event_pattern
from repro.core.stpm import mine_seasonal_patterns, series_of
from repro.events import EventInstance
from repro.exceptions import MiningError
from repro.resilience.policy import run_tasks


def _dseq(rows, ratio=2):
    return build_sequence_database(SymbolicDatabase.from_rows(rows), ratio)


def _params(**overrides):
    base = {"max_period": 2, "min_density": 1, "dist_interval": (0, 20), "min_season": 1}
    base.update(overrides)
    return MiningParams(**base)


class TestSeriesOf:
    def test_simple(self):
        assert series_of("C:1") == "C"

    def test_colon_in_series_name(self):
        assert series_of("a:b:1") == "a:b"


class TestFilters:
    def test_series_filter_restricts_events(self):
        dseq = _dseq({"A": "1100", "B": "0011"})
        result = ESTPM(dseq, _params(), series_filter={"A"}).mine()
        events = {e for sp in result.patterns for e in sp.pattern.events}
        assert all(event.startswith("A:") for event in events)
        assert result.stats.n_events_pruned == 2


class TestDispatch:
    def test_dispatch_is_lazy(self):
        """A task runs only once the previous outcome has been consumed,
        so each group's outcome is registered (and freed) before the next
        group is mined."""
        seen = []

        def record(task, context):
            seen.append(task)
            return task

        outcomes = run_tasks(record, [1, 2, 3], None, "k2", None, [])
        assert seen == []  # nothing ran yet
        assert next(outcomes) == 1
        assert seen == [1]  # one group at a time
        assert list(outcomes) == [2, 3]


class TestMaxPatternLength:
    def test_length_one_returns_only_single_events(self):
        dseq = _dseq({"A": "1100", "B": "1100"})
        result = ESTPM(dseq, _params(max_pattern_length=1)).mine()
        assert result.patterns
        assert all(sp.size == 1 for sp in result.patterns)

    def test_length_two_excludes_triples(self):
        dseq = _dseq({"A": "110011", "B": "110011", "C": "110011"})
        result = ESTPM(dseq, _params(max_pattern_length=2)).mine()
        assert result.by_size(2)
        assert not result.by_size(3)

    def test_longer_patterns_nest(self):
        dseq = _dseq({"A": "110110", "B": "110110", "C": "110110"}, ratio=3)
        result = ESTPM(dseq, _params(max_pattern_length=3)).mine()
        for sp in result.by_size(3):
            assert len(sp.pattern.triples) == 3


class TestStats:
    def test_counters_populated(self, paper_dseq, paper_params):
        result = ESTPM(paper_dseq, paper_params).mine()
        assert result.stats.n_granules == 14
        assert result.stats.n_groups_generated[2] > 0
        assert result.stats.n_candidate_patterns[2] > 0
        assert result.stats.mining_seconds > 0
        assert sum(result.stats.n_frequent.values()) == len(result)

    def test_pruning_reduces_generated_groups(self, paper_dseq, paper_params):
        pruned = ESTPM(paper_dseq, paper_params, PruningConfig.all()).mine()
        unpruned = ESTPM(paper_dseq, paper_params, PruningConfig.none()).mine()
        assert (
            pruned.stats.n_groups_generated[2]
            <= unpruned.stats.n_groups_generated[2]
        )


class TestSelfPairs:
    def test_same_event_pattern_found(self):
        # Event A:1 recurs twice inside each sequence -> A:1 -> A:1 pattern.
        dseq = _dseq({"A": "101101"}, ratio=3)
        result = ESTPM(dseq, _params()).mine()
        self_pairs = [
            sp for sp in result.by_size(2) if sp.pattern.events == ("A:1", "A:1")
        ]
        assert self_pairs

    def test_self_pair_requires_distinct_instances(self):
        # Only one instance of A:1 per sequence -> no self-pair pattern.
        dseq = _dseq({"A": "1100"}, ratio=2)
        result = ESTPM(dseq, _params()).mine()
        assert not [
            sp for sp in result.by_size(2) if sp.pattern.events == ("A:1", "A:1")
        ]


class TestWrapperValidation:
    def test_empty_dseq_rejected(self):
        from repro.transform.sequence_db import TemporalSequenceDatabase

        empty = TemporalSequenceDatabase(rows=[], ratio=1)
        with pytest.raises(MiningError):
            mine_seasonal_patterns(empty, _params())


class TestHLHStructures:
    def test_hlh1_roundtrip(self):
        hlh1 = HLH1()
        column = InstanceColumn.from_instances([EventInstance("A:1", 1, 2)])
        hlh1.add_event("A:1", [1, 3], {1: column, 3: EMPTY_COLUMN})
        assert "A:1" in hlh1
        assert hlh1.support_of("A:1") == [1, 3]
        assert hlh1.column_of("A:1", 1) is column
        assert hlh1.column_of("A:1", 99) is EMPTY_COLUMN
        assert hlh1.candidates == ["A:1"]
        assert len(hlh1) == 1

    def test_hlhk_group_and_pattern_linkage(self):
        hlhk = HLHk(k=2)
        entry = hlhk.add_group(("A:1", "B:1"), [1, 2, 3])
        assert isinstance(entry, GroupEntry)
        pattern = single_event_pattern("A:1")  # stand-in with event_group ('A:1',)
        hlhk.add_pattern(pattern, [1, 2], {1: [], 2: []})
        assert hlhk.support_of(pattern) == [1, 2]
        assert hlhk.assignments_of(pattern, 1) == []
        assert hlhk.patterns == [pattern]
        assert hlhk.events_in_patterns() == {"A:1"}
        assert len(hlhk) == 1
