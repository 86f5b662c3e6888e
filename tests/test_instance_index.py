"""Columnar instance index + sweep-join kernels: units and kernel parity.

The headline guarantee of the columnar engine: a whole mining job run on
the sweep kernels is ``results_equivalent`` to the same job on the
pre-index reference kernels -- on every seed dataset, for both miners,
under both executors.  Plus the unit surface: column construction and
caching, flyweight interning, compact assignment decoding, and the
``event_a == event_b`` self-pair paths.
"""

import pickle

import pytest

from repro import ESTPM, MiningParams, SymbolicDatabase, build_sequence_database
from repro.core.approximate import ASTPM
from repro.core.executor import ParallelExecutor
from repro.core.hlh import HLH1
from repro.core.instance_index import (
    EMPTY_COLUMN,
    InstanceColumn,
    decode_assignment,
    intern_pair_pattern,
    intern_pattern,
    intern_triple,
    validate_kernel,
)
from repro.core.pattern import pattern_from_instances
from repro.core.results import results_equivalent
from repro.datasets import load_dataset
from repro.events.event import EventInstance
from repro.events.relations import FOLLOWS
from repro.exceptions import ConfigError, MiningError
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


class TestInstanceColumn:
    def test_columns_are_start_sorted(self):
        instances = [
            EventInstance("A:1", 5, 6),
            EventInstance("A:1", 1, 2),
            EventInstance("A:1", 3, 3),
        ]
        column = InstanceColumn.from_instances(instances)
        assert column.starts == (1, 3, 5)
        assert column.ends == (2, 3, 6)
        assert [i.start for i in column.instances] == [1, 3, 5]

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
        hlh1 = HLH1()
        instance = EventInstance("A:1", 1, 2)
        hlh1.add_event("A:1", [1], {1: [instance]})
        column = hlh1.column_of("A:1", 1)
        assert column.starts == (1,)
        assert hlh1.column_of("A:1", 1) is column  # cached
        assert hlh1.column_of("A:1", 99) is EMPTY_COLUMN
        assert hlh1.column_of("B:1", 1) is EMPTY_COLUMN

    def test_add_event_invalidates_columns(self):
        hlh1 = HLH1()
        hlh1.add_event("A:1", [1], {1: [EventInstance("A:1", 1, 2)]})
        stale = hlh1.column_of("A:1", 1)
        hlh1.add_event("A:1", [1], {1: [EventInstance("A:1", 3, 4)]})
        fresh = hlh1.column_of("A:1", 1)
        assert fresh is not stale
        assert fresh.starts == (3,)

    def test_pickle_drops_the_cache(self):
        hlh1 = HLH1()
        hlh1.add_event("A:1", [1], {1: [EventInstance("A:1", 1, 2)]})
        hlh1.column_of("A:1", 1)
        clone = pickle.loads(pickle.dumps(hlh1))
        assert clone._columns == {}
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

    def test_release_context_clears_worker_intern_caches(self):
        """The end-of-job release broadcast (PR 4's 'idle kept pool pins
        no mining state') also drops the flyweight caches in workers."""
        import multiprocessing

        from repro.core import executor as executor_module
        from repro.core import instance_index
        from repro.core.executor import _receive_context, get_task_context

        intern_triple(FOLLOWS, "A:1", "B:1")
        executor_module._init_worker(multiprocessing.Barrier(1))
        try:
            _receive_context(pickle.dumps(None))
        finally:
            executor_module._init_worker(None)
        assert get_task_context() is None
        assert not instance_index._TRIPLE_CACHE

    def test_validate_kernel(self):
        assert validate_kernel("array") == "array"
        assert validate_kernel("sweep") == "sweep"
        assert validate_kernel("reference") == "reference"
        with pytest.raises(ConfigError):
            validate_kernel("vectorized")
        with pytest.raises(ConfigError):
            ESTPM(_dseq({"A": "0101"}, 2), _params(), kernel="nope").mine()


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


class TestSelfPairPaths:
    """The event_a == event_b paths of both kernels (pairs + extension)."""

    ROWS = {
        # A:1 occurs twice per granule (ratio 6) -> self pairs everywhere.
        "A": "110110" * 6,
        "B": "011011" * 6,
    }

    def test_self_pair_patterns_match_reference(self):
        dseq = _dseq(self.ROWS, 6)
        params = _params(max_pattern_length=3)
        sweep = ESTPM(dseq, params).mine()
        reference = ESTPM(dseq, params, kernel="reference").mine()
        assert results_equivalent(sweep, reference)
        self_pairs = [
            sp for sp in sweep.patterns if sp.pattern.events == ("A:1", "A:1")
        ]
        assert self_pairs, "workload must exercise the self-pair kernel path"
        repeated_triples = [
            sp
            for sp in sweep.patterns
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

    @pytest.mark.parametrize("kernel", ["array", "sweep", "reference"])
    def test_streaming_miner(self, kernel):
        miner = IncrementalSTPM(
            _dseq(THREE_SERIES, 3), _params(max_pattern_length=4), kernel=kernel
        )
        miner.advance()
        self._assert_last_level_empty(miner.state.hlhk, 4)


class TestKernelParity:
    """Array == sweep == reference on all seed datasets x miners x executors."""

    @pytest.fixture(scope="class")
    def pool(self):
        with ParallelExecutor(max_workers=2) as executor:
            yield executor

    @pytest.mark.parametrize("name", ["RE", "SC", "INF", "HFM"])
    def test_estpm_parity(self, pool, name):
        dataset = load_dataset(name, "tiny")
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        dseq = dataset.dseq()
        baseline = ESTPM(dseq, params, kernel="reference").mine()
        assert baseline.patterns, f"parity run on {name} mined nothing"
        for kernel, executor in (
            ("array", "serial"),
            ("array", pool),
            ("sweep", "serial"),
            ("sweep", pool),
            ("reference", pool),
        ):
            result = ESTPM(dseq, params, kernel=kernel, executor=executor).mine()
            assert results_equivalent(result, baseline), (name, kernel, executor)

    @pytest.mark.parametrize("name", ["RE", "SC", "INF", "HFM"])
    def test_astpm_parity(self, pool, name):
        dataset = load_dataset(name, "tiny")
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        dseq = dataset.dseq()
        baseline = ASTPM(
            dataset.dsyb, dataset.ratio, params, dseq=dseq, kernel="reference"
        ).mine()
        for kernel, executor in (
            ("array", "serial"),
            ("array", pool),
            ("sweep", "serial"),
            ("sweep", pool),
            ("reference", pool),
        ):
            result = ASTPM(
                dataset.dsyb,
                dataset.ratio,
                params,
                dseq=dseq,
                kernel=kernel,
                executor=executor,
            ).mine()
            assert results_equivalent(result, baseline), (name, kernel, executor)
