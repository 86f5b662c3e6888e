"""Columnar front end vs the granule-by-granule oracle (Defs. 3.9-3.11).

The columnar front end (one pass per series, primed supports, lazy rows
and instance columns) must be observably identical to the scalar
granule-by-granule test oracle (``dseq_oracle``) on every surface mining
touches: rows, per-event supports, prebuilt columns, streaming
materialization, and the final mining results -- under both compute
backends.
"""

from __future__ import annotations

import pickle

import pytest
from dseq_oracle import oracle_dseq

from repro import ESTPM, SymbolicDatabase, build_sequence_database
from repro.core.config import get_numpy, set_compute_backend
from repro.core.results import results_equivalent
from repro.datasets import load_dataset
from repro.events import EventInstance
from repro.exceptions import SymbolizationError
from repro.obs import counters
from repro.obs.trace import (
    disable_tracing,
    enable_tracing,
    reset_trace,
    trace_tree,
)
from repro.resilience import RetryPolicy
from repro.streaming import StreamingDatabase
from repro.symbolic.alphabet import Alphabet
from repro.symbolic.series import SymbolicSeries


def _support_positions(dseq):
    return {
        event: list(support.positions())
        for event, support in dseq.event_support().items()
    }


class TestColumnarScalarParity:
    def test_paper_rows_identical(self, paper_dsyb, compute_backend):
        columnar = build_sequence_database(paper_dsyb, 3)
        scalar = oracle_dseq(paper_dsyb, 3)
        assert len(columnar) == len(scalar)
        for left, right in zip(columnar.rows, scalar.rows):
            assert left.position == right.position
            assert left.instances == right.instances
            assert left.events() == right.events()
            for event in left.events():
                assert left.instances_of(event) == right.instances_of(event)

    def test_paper_supports_identical(self, paper_dsyb, compute_backend):
        columnar = build_sequence_database(paper_dsyb, 3)
        scalar = oracle_dseq(paper_dsyb, 3)
        assert _support_positions(columnar) == _support_positions(scalar)

    @pytest.mark.parametrize("name", ["RE", "INF"])
    def test_seed_dataset_rows_identical(self, name, compute_backend):
        dataset = load_dataset(name, "tiny")
        columnar = build_sequence_database(dataset.dsyb, dataset.ratio)
        scalar = oracle_dseq(dataset.dsyb, dataset.ratio)
        assert list(columnar.rows) == list(scalar.rows)
        assert _support_positions(columnar) == _support_positions(scalar)

    def test_mining_parity(self, paper_dsyb, paper_params, compute_backend):
        columnar = build_sequence_database(paper_dsyb, 3)
        scalar = oracle_dseq(paper_dsyb, 3)
        reference = ESTPM(scalar, paper_params).mine()
        mined = ESTPM(columnar, paper_params).mine()
        assert results_equivalent(mined, reference)

    @pytest.mark.parametrize(
        "engine",
        [{"retry": RetryPolicy(max_attempts=1), "strict": False}],
        ids=["serial"],
    )
    def test_mining_parity_across_engines(self, paper_dsyb, paper_params, engine):
        # Group tasks run in-process; the engine settings that remain
        # (retry policy, quarantine mode) must not move the result.
        columnar = build_sequence_database(paper_dsyb, 3)
        scalar = oracle_dseq(paper_dsyb, 3)
        reference = ESTPM(scalar, paper_params).mine()
        mined = ESTPM(columnar, paper_params, **engine).mine()
        assert not mined.failures
        assert results_equivalent(mined, reference)


@pytest.fixture(scope="module")
def long_dsyb(paper_dsyb):
    """The paper's streams tiled 8x -- long enough for the numpy tables
    (``_NUMPY_MIN_SYMBOLS``), preserving the binary run structure."""
    database = SymbolicDatabase()
    for series in paper_dsyb:
        database.add(
            SymbolicSeries(series.name, series.symbols * 8, series.alphabet)
        )
    return database


class TestPrebuiltColumns:
    def test_short_streams_have_none(self, paper_dsyb):
        # Below _NUMPY_MIN_SYMBOLS the columnar builder stays scalar and
        # primes supports only.
        columnar = build_sequence_database(paper_dsyb, 3)
        assert columnar.prebuilt_columns("C:1") is None
        scalar = oracle_dseq(paper_dsyb, 3)
        assert _support_positions(columnar) == _support_positions(scalar)

    @pytest.mark.skipif(get_numpy() is None, reason="needs the numpy backend")
    def test_columns_match_row_walks(self, long_dsyb):
        columnar = build_sequence_database(long_dsyb, 3)
        scalar = oracle_dseq(long_dsyb, 3)
        for event, support in scalar.event_support().items():
            columns = columnar.prebuilt_columns(event)
            assert columns is not None
            assert sorted(columns) == list(support.positions())
            for granule, column in columns.items():
                instances = scalar.instances_at(granule, event)
                assert list(column.instances) == instances
                assert list(column.starts) == [i.start for i in instances]
                assert list(column.ends) == [i.end for i in instances]

    @pytest.mark.skipif(get_numpy() is None, reason="needs the numpy backend")
    def test_columns_cached_per_event(self, long_dsyb):
        columnar = build_sequence_database(long_dsyb, 3)
        first = columnar.prebuilt_columns("C:1")
        assert first is not None
        assert columnar.prebuilt_columns("C:1") is first

    def test_pure_columnar_has_none(self, long_dsyb):
        set_compute_backend("python")
        try:
            columnar = build_sequence_database(long_dsyb, 3)
            assert columnar.prebuilt_columns("C:1") is None
        finally:
            set_compute_backend(None)

    @pytest.mark.skipif(get_numpy() is None, reason="needs the numpy backend")
    def test_append_invalidates(self, long_dsyb):
        columnar = build_sequence_database(long_dsyb, 3)
        assert columnar.prebuilt_columns("C:1") is not None
        from repro.events.sequence import TemporalSequence

        columnar.append_row(
            TemporalSequence(position=len(columnar) + 1).finalize()
        )
        assert columnar.prebuilt_columns("C:1") is None


class TestLazyRows:
    """The columnar builders defer row materialization behind a thunk."""

    def test_len_before_materialization(self, paper_dsyb, compute_backend):
        columnar = build_sequence_database(paper_dsyb, 3)
        assert len(columnar) == 14  # no row access yet

    def test_supports_without_rows(self, paper_dsyb, compute_backend):
        # event_support must come from the primed positions, not a row
        # scan: compute it first, then check rows match the reference.
        columnar = build_sequence_database(paper_dsyb, 3)
        supports = _support_positions(columnar)
        scalar = oracle_dseq(paper_dsyb, 3)
        assert supports == _support_positions(scalar)
        assert list(columnar.rows) == list(scalar.rows)

    def test_rows_materialize_on_index(self, paper_dsyb, compute_backend):
        columnar = build_sequence_database(paper_dsyb, 3)
        row = columnar.sequence_at(7)
        assert row.instances_of("C:1") == [EventInstance("C:1", 19, 21)]

    def test_append_after_lazy_build(self, paper_dsyb, compute_backend):
        from repro.events.sequence import TemporalSequence

        columnar = build_sequence_database(paper_dsyb, 3)
        columnar.append_row(TemporalSequence(position=15).finalize())
        assert len(columnar) == 15
        assert columnar.sequence_at(7).instances_of("C:1") == [
            EventInstance("C:1", 19, 21)
        ]

    def test_rows_equality_between_builds(self, paper_dsyb, compute_backend):
        one = build_sequence_database(paper_dsyb, 3)
        two = oracle_dseq(paper_dsyb, 3)
        assert one.rows == two.rows

    def test_pickle_degrades_to_plain_rows(self, paper_dsyb, compute_backend):
        columnar = build_sequence_database(paper_dsyb, 3)
        restored = pickle.loads(pickle.dumps(columnar.rows))
        assert isinstance(restored, list)
        scalar = oracle_dseq(paper_dsyb, 3)
        assert restored == list(scalar.rows)

    def test_prefix_and_coarsen_still_work(self, paper_dsyb, compute_backend):
        columnar = build_sequence_database(paper_dsyb, 3)
        scalar = oracle_dseq(paper_dsyb, 3)
        assert list(columnar.prefix(5).rows) == list(scalar.prefix(5).rows)
        assert list(columnar.coarsen(2).rows) == list(scalar.coarsen(2).rows)


class TestFromCodes:
    """The vectorized mappers' integer-code constructor."""

    @pytest.fixture
    def alphabet(self):
        return Alphabet.levels(["L", "M", "H"])

    @pytest.mark.skipif(get_numpy() is None, reason="needs the numpy backend")
    def test_matches_symbol_constructor(self, alphabet):
        np = get_numpy()
        codes = np.asarray([0, 0, 2, 1, 1, 2, 0])
        fast = SymbolicSeries.from_codes("S", codes, alphabet)
        slow = SymbolicSeries("S", tuple(alphabet.symbols[c] for c in codes), alphabet)
        assert fast.symbols == slow.symbols
        assert fast.probabilities() == slow.probabilities()
        assert fast.observed_symbols() == slow.observed_symbols()
        assert fast.event_keys() == slow.event_keys()

    @pytest.mark.skipif(get_numpy() is None, reason="needs the numpy backend")
    def test_out_of_range_codes_rejected(self, alphabet):
        np = get_numpy()
        with pytest.raises(SymbolizationError, match="outside"):
            SymbolicSeries.from_codes("S", np.asarray([0, 3]), alphabet)
        with pytest.raises(SymbolizationError):
            SymbolicSeries.from_codes("S", np.asarray([-1, 0]), alphabet)

    @pytest.mark.skipif(get_numpy() is None, reason="needs the numpy backend")
    def test_empty_codes_rejected(self, alphabet):
        np = get_numpy()
        with pytest.raises(SymbolizationError, match="empty"):
            SymbolicSeries.from_codes("S", np.asarray([], dtype=np.int64), alphabet)


class TestStreamingFrontends:
    def test_streamed_rows_match_batch(self, paper_dsyb, compute_backend):
        batch = oracle_dseq(paper_dsyb, 3)
        streamed = StreamingDatabase.from_symbolic(paper_dsyb, 3)
        assert list(streamed.dseq.rows) == list(batch.rows)

    def test_ragged_pushes_match(self, paper_dsyb, compute_backend):
        reference = oracle_dseq(paper_dsyb, 3)
        streams = {s.name: s.symbols for s in paper_dsyb}
        database = StreamingDatabase(3, {s.name: s.alphabet for s in paper_dsyb})
        cut = 0
        for step in (5, 1, 11, 8, 17):
            database.append_symbols(
                {name: sym[cut : cut + step] for name, sym in streams.items()}
            )
            cut += step
        database.append_symbols({name: sym[cut:] for name, sym in streams.items()})
        assert list(database.dseq.rows) == list(reference.rows)


class TestInstrumentation:
    def test_build_span_carries_ratio_and_granules(self, paper_dsyb):
        reset_trace()
        enable_tracing()
        try:
            build_sequence_database(paper_dsyb, 3)
            roots = trace_tree()
        finally:
            disable_tracing()
            reset_trace()
        builds = [root for root in roots if root["name"] == "transform/build_dseq"]
        assert builds and builds[0]["attrs"] == {"ratio": 3, "granules": 14}

    def test_columnar_counters(self, paper_dsyb):
        counters.reset()
        counters.enable_metrics()
        try:
            build_sequence_database(paper_dsyb, 3)
            recorded = counters.summary()["counters"]
        finally:
            counters.disable_metrics()
            counters.reset()
        assert recorded["frontend.columnar.runs"] > 0
        assert recorded["frontend.columnar.events"] == 10  # 5 series x {0,1}
