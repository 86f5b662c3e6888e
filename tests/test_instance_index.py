"""Columnar instance index + step-2.2 kernels: units and oracle parity.

The headline guarantee of the columnar engine: a whole mining job is
``results_equivalent`` to the brute-force :class:`NaiveSTPM` oracle on
every seed dataset, for both miners.  Plus the unit surface: column
construction and lookup, flyweight interning (cleared at job end),
compact assignment decoding, and the ``event_a == event_b`` self-pair
paths.
"""

import pickle

import pytest

from repro import ESTPM, MiningParams, SymbolicDatabase, build_sequence_database
from repro.baselines import NaiveSTPM
from repro.core.approximate import ASTPM
from repro.core.hlh import HLH1
from repro.core.instance_index import (
    EMPTY_COLUMN,
    InstanceColumn,
    decode_assignment,
    intern_pair_pattern,
    intern_pattern,
    intern_triple,
)
from repro.core.pattern import pattern_from_instances
from repro.core.results import results_equivalent
from repro.core.stpm import series_of
from repro.datasets import load_dataset
from repro.events.event import EventInstance
from repro.events.relations import FOLLOWS
from repro.exceptions import MiningError
from repro.streaming import IncrementalSTPM


def _dseq(rows: dict[str, str], ratio: int):
    return build_sequence_database(SymbolicDatabase.from_rows(rows), ratio)


def _params(**overrides):
    defaults = {
        "max_period": 2,
        "min_density": 1,
        "dist_interval": (0, 8),
        "min_season": 1,
        "max_pattern_length": 3,
    }
    defaults.update(overrides)
    return MiningParams(**defaults)


def _column(*bounds):
    return InstanceColumn.from_instances(
        [EventInstance("A:1", start, end) for start, end in bounds]
    )


class TestInstanceColumn:
    def test_columns_are_start_sorted(self):
        column = _column((5, 6), (1, 2), (3, 3))
        assert column.starts == (1, 3, 5)
        assert column.ends == (2, 3, 6)
        assert len(column) == 3
        assert column == InstanceColumn((1, 3, 5), (2, 3, 6))
        assert column != InstanceColumn((1, 3, 5), (2, 3, 7))

    def test_partial_overlap_allowed_nesting_rejected(self):
        # Partial overlap keeps both columns monotone -- fine.  Nesting
        # breaks the ends monotonicity the sweep bounds rely on, so a
        # hand-built structure violating Def. 3.10 is rejected loudly.
        column = InstanceColumn.from_instances(
            [EventInstance("A:1", 1, 5), EventInstance("A:1", 3, 8)]
        )
        assert column.ends == (5, 8)
        with pytest.raises(MiningError):
            InstanceColumn.from_instances(
                [EventInstance("A:1", 1, 30), EventInstance("A:1", 2, 3)]
            )

    def test_hlh1_caches_columns(self):
        # GH holds the columns themselves: column_of hands back the
        # installed object, and EMPTY_COLUMN where the event is absent.
        hlh1 = HLH1()
        column = _column((1, 2))
        hlh1.add_event("A:1", [1], {1: column})
        assert hlh1.column_of("A:1", 1) is column
        assert hlh1.column_of("A:1", 99) is EMPTY_COLUMN
        assert hlh1.column_of("B:1", 1) is EMPTY_COLUMN

    def test_add_event_invalidates_columns(self):
        hlh1 = HLH1()
        hlh1.add_event("A:1", [1], {1: _column((1, 2))})
        stale = hlh1.column_of("A:1", 1)
        hlh1.add_event("A:1", [1], {1: _column((3, 4))})
        fresh = hlh1.column_of("A:1", 1)
        assert fresh is not stale
        assert fresh.starts == (3,)

    def test_pickle_drops_the_cache(self):
        hlh1 = HLH1()
        hlh1.add_event("A:1", [1], {1: _column((1, 2))})
        assert hlh1.candidates == ["A:1"]
        clone = pickle.loads(pickle.dumps(hlh1))
        assert clone._candidates is None
        assert clone.eh == hlh1.eh
        assert clone.gh == hlh1.gh
        assert clone.column_of("A:1", 1).starts == (1,)


class TestInterning:
    def test_triples_and_patterns_are_flyweights(self):
        t1 = intern_triple(FOLLOWS, "A:1", "B:1")
        t2 = intern_triple(FOLLOWS, "A:1", "B:1")
        assert t1 is t2
        p1 = intern_pair_pattern(FOLLOWS, "A:1", "B:1")
        p2 = intern_pattern(("A:1", "B:1"), (t1,))
        assert p1 is p2

    def test_clear_intern_caches(self):
        from repro.core import instance_index

        intern_triple(FOLLOWS, "A:1", "B:1")
        intern_pair_pattern(FOLLOWS, "A:1", "B:1")
        assert instance_index._TRIPLE_CACHE and instance_index._PATTERN_CACHE
        instance_index.clear_intern_caches()
        assert not instance_index._TRIPLE_CACHE
        assert not instance_index._PATTERN_CACHE

    def test_intern_caches_are_hard_bounded(self, monkeypatch):
        from repro.core import instance_index

        instance_index.clear_intern_caches()
        monkeypatch.setattr(instance_index, "_INTERN_CACHE_LIMIT", 4)
        for i in range(10):
            intern_triple(FOLLOWS, f"A:{i}", "B:1")
        assert len(instance_index._TRIPLE_CACHE) <= 4
        # A reset only costs re-construction; equality is unaffected.
        again = intern_triple(FOLLOWS, "A:0", "B:1")
        assert again == intern_triple(FOLLOWS, "A:0", "B:1")
        instance_index.clear_intern_caches()

    @pytest.mark.parametrize("miner", ["estpm", "astpm", "hierarchical"])
    def test_mine_clears_intern_caches_at_job_end(self, tiny_inf, miner):
        """A finished job pins no flyweights, so a process that runs many
        jobs keeps none of the finished ones' patterns alive."""
        from repro.core import instance_index
        from repro.multigrain import HierarchicalMiner

        params = tiny_inf.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        ratio = tiny_inf.ratio
        jobs = {
            "estpm": lambda: ESTPM(tiny_inf.dseq(), params),
            "astpm": lambda: ASTPM(tiny_inf.dsyb, ratio, params, dseq=tiny_inf.dseq()),
            "hierarchical": lambda: HierarchicalMiner(
                tiny_inf.dsyb, ratios=[ratio, 2 * ratio], min_season=4
            ),
        }
        intern_triple(FOLLOWS, "A:1", "B:1")  # a flyweight of an earlier job
        result = jobs[miner]().mine()
        assert len(result) > 0  # the job interned patterns of its own
        assert not instance_index._TRIPLE_CACHE
        assert not instance_index._PATTERN_CACHE


#: Three interleaved series whose 4-event level is non-empty at ratio 3.
THREE_SERIES = {
    "A": "110100110100110100",
    "B": "011010011010011010",
    "C": "101101101101101101",
}


class TestEncodedAssignments:
    def test_ghk_assignments_decode_to_realizing_instances(self):
        """Every encoded GHk assignment decodes to an instance tuple
        that realizes exactly its pattern (pair and extension levels).

        Mined to length 4 so that k = 3 is an inner level: the last
        level stores no assignments.
        """
        miner = IncrementalSTPM(
            _dseq(THREE_SERIES, 3), _params(max_pattern_length=4)
        )
        miner.advance()
        state = miner.state
        checked = {}
        for k, mirror in state.hlhk.items():
            for pattern, by_granule in mirror.ghk.items():
                assert pattern.size == k
                for granule, encoded_list in by_granule.items():
                    decoded_list = mirror.decoded_assignments_of(
                        pattern, granule, state.hlh1
                    )
                    assert len(decoded_list) == len(encoded_list)
                    for encoded, decoded in zip(encoded_list, decoded_list):
                        assert decoded == decode_assignment(
                            state.hlh1, pattern.events, granule, encoded
                        )
                        assert tuple(i.event for i in decoded) == pattern.events
                        realized = pattern_from_instances(
                            decoded, miner.params.relation
                        )
                        assert realized == pattern
                        checked[k] = checked.get(k, 0) + 1
        assert checked.get(2, 0) > 0
        assert checked.get(3, 0) > 0


    @pytest.mark.parametrize("miner", ["batch", "streaming"])
    def test_decoded_instances_are_the_rows_own(self, monkeypatch, miner):
        """Decoding rebuilds each instance from its column's bounds; it
        equals the instance the granule row holds at that index."""
        # Long enough for the numpy builder's run tables (when enabled).
        dseq = _dseq({name: row * 11 for name, row in THREE_SERIES.items()}, 3)
        params = _params(max_pattern_length=4)
        if miner == "streaming":
            streaming = IncrementalSTPM(dseq, params)
            streaming.advance()
            hlh1, levels = streaming.state.hlh1, streaming.state.hlhk
        else:
            recorded = {}
            for name in ("_mine_single_events", "_mine_two_event_patterns",
                         "_mine_k_event_patterns"):
                monkeypatch.setattr(
                    ESTPM, name, _recording(getattr(ESTPM, name), recorded)
                )
            ESTPM(dseq, params).mine()
            hlh1 = recorded.pop(1)
            levels = recorded
        checked = 0
        for mirror in levels.values():
            for pattern, by_granule in mirror.ghk.items():
                for granule, encoded_list in by_granule.items():
                    decoded_list = mirror.decoded_assignments_of(pattern, granule, hlh1)
                    for encoded, decoded in zip(encoded_list, decoded_list):
                        assert decoded == tuple(
                            dseq.instances_at(granule, event)[index]
                            for event, index in zip(pattern.events, encoded)
                        )
                        checked += 1
        assert checked > 0


def _recording(method, recorded):
    """Wrap an ESTPM level method to record what it returns, by level."""

    def wrapper(self, *args, **kwargs):
        level = method(self, *args, **kwargs)
        recorded[getattr(level, "k", 1)] = level
        return level

    return wrapper


class TestSelfPairPaths:
    """The event_a == event_b paths of both kernels (pairs + extension)."""

    ROWS = {
        # A:1 occurs twice per granule (ratio 6) -> self pairs everywhere.
        "A": "110110" * 6,
        "B": "011011" * 6,
    }

    def test_self_pair_patterns_match_reference(self):
        """The reference is the brute-force NaiveSTPM oracle."""
        dseq = _dseq(self.ROWS, 6)
        params = _params(max_pattern_length=3)
        result = ESTPM(dseq, params).mine()
        assert results_equivalent(result, NaiveSTPM(dseq, params).mine())
        self_pairs = [
            sp for sp in result.patterns if sp.pattern.events == ("A:1", "A:1")
        ]
        assert self_pairs, "workload must exercise the self-pair kernel path"
        repeated_triples = [
            sp
            for sp in result.patterns
            if sp.size == 3 and sp.pattern.events.count("A:1") >= 2
        ]
        assert repeated_triples, (
            "workload must exercise the repeated-event extension path"
        )

    def test_extension_never_pairs_an_instance_with_itself(self):
        # Mined to length 4 so the k = 3 assignments are kept.
        dseq = _dseq(self.ROWS, 6)
        miner = IncrementalSTPM(dseq, _params(max_pattern_length=4))
        miner.advance()
        state = miner.state
        checked = 0
        for k, mirror in state.hlhk.items():
            if k < 3:
                continue
            for pattern, by_granule in mirror.ghk.items():
                for granule in by_granule:
                    for decoded in mirror.decoded_assignments_of(
                        pattern, granule, state.hlh1
                    ):
                        assert len(set(decoded)) == len(decoded)
                        if k == 3:
                            checked += 1
        assert checked > 0


class TestLastLevelStoresSupportsOnly:
    """Nothing extends the last level, so its GHk holds no assignments
    while the inner levels keep theirs."""

    @staticmethod
    def _assert_last_level_empty(levels, last):
        assert levels[last].phk, "workload must reach the last level"
        assert all(not by_granule for by_granule in levels[last].ghk.values())
        assert any(by_granule for by_granule in levels[last - 1].ghk.values())

    def test_batch_miner(self, monkeypatch):
        levels = {}
        mine_level = ESTPM._mine_k_event_patterns

        def recording(self, *args, **kwargs):
            hlhk = mine_level(self, *args, **kwargs)
            levels[hlhk.k] = hlhk
            return hlhk

        monkeypatch.setattr(ESTPM, "_mine_k_event_patterns", recording)
        ESTPM(_dseq(THREE_SERIES, 3), _params(max_pattern_length=4)).mine()
        self._assert_last_level_empty(levels, 4)

    def test_streaming_miner(self):
        miner = IncrementalSTPM(_dseq(THREE_SERIES, 3), _params(max_pattern_length=4))
        miner.advance()
        self._assert_last_level_empty(miner.state.hlhk, 4)


class TestKernelParity:
    """Whole jobs against the NaiveSTPM oracle on all seed datasets x
    miners."""

    @pytest.fixture(scope="class")
    def jobs(self):
        """``name -> (dataset, params, dseq, oracle result)``, each oracle
        run once and shared by both miners' tests."""
        cache = {}

        def job(name):
            if name not in cache:
                dataset = load_dataset(name, "tiny")
                params = dataset.params(
                    max_period_pct=0.4, min_density_pct=0.75, min_season=4
                )
                dseq = dataset.dseq()
                cache[name] = (dataset, params, dseq, NaiveSTPM(dseq, params).mine())
            return cache[name]

        return job

    @pytest.mark.parametrize("name", ["RE", "SC", "INF", "HFM"])
    def test_estpm_parity(self, jobs, name):
        _, params, dseq, oracle = jobs(name)
        assert oracle.patterns, f"parity run on {name} mined nothing"
        assert results_equivalent(ESTPM(dseq, params).mine(), oracle), name

    @pytest.mark.parametrize("name", ["RE", "SC", "INF", "HFM"])
    def test_astpm_parity(self, jobs, name):
        """A-STPM is exact on the series its MI screening keeps."""
        dataset, params, dseq, oracle = jobs(name)
        miner = ASTPM(dataset.dsyb, dataset.ratio, params, dseq=dseq)
        kept = set(miner.screening().correlated_series)
        expected = {
            sp.pattern: sp.support
            for sp in oracle.patterns
            if all(series_of(event) in kept for event in sp.pattern.events)
        }
        result = miner.mine()
        assert not result.failures
        assert {sp.pattern: sp.support for sp in result.patterns} == expected, name
