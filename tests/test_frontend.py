"""Columnar front end vs the granule-by-granule oracle (Defs. 3.9-3.11).

The columnar front end (one pass per series, primed supports, lazy rows
and instance columns) must be observably identical to the scalar
granule-by-granule test oracle (``dseq_oracle``) on every surface mining
touches: rows, per-event supports, instance columns, streaming
materialization, and the final mining results -- under both compute
backends.
"""

from __future__ import annotations

import pickle

import pytest
from dseq_oracle import oracle_dseq

from repro import ESTPM, MiningParams, SymbolicDatabase, build_sequence_database
from repro.core import supportset
from repro.core.config import get_numpy, set_compute_backend
from repro.core.instance_index import InstanceColumn
from repro.core.results import results_equivalent
from repro.core.seasonality import is_season_candidate
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
from repro.transform.sequence_db import _NUMPY_MIN_SYMBOLS


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


def _assert_columns_match_oracle(dseq, oracle, events=None):
    """``instance_columns`` equals the oracle's row walks: keyed by the
    event's support positions, each column holding the row's bounds."""
    supports = oracle.event_support()
    for event in sorted(supports) if events is None else sorted(events):
        columns = dseq.instance_columns(event)
        assert list(columns) == list(supports[event].positions())
        for granule, column in columns.items():
            instances = oracle.instances_at(granule, event)
            assert column.starts == tuple(i.start for i in instances)
            assert column.ends == tuple(i.end for i in instances)


def _coded(rows: dict[str, str], alphabet: Alphabet) -> SymbolicDatabase:
    """Series carrying mapper-style integer codes, so the numpy builder's
    events are the whole alphabet, unused symbols included."""
    np = get_numpy()
    return SymbolicDatabase.from_symbolic(
        [
            SymbolicSeries.from_codes(
                name, np.asarray([alphabet.index(s) for s in row]), alphabet
            )
            for name, row in rows.items()
        ]
    )


#: Numpy-builder inputs past ``_NUMPY_MIN_SYMBOLS`` that a mis-grouped run
#: pool would get wrong: ``name -> (rows, alphabet, ratio, coded)``.
GROUPED_CASES = {
    # Five series with coprime run lengths and offsets: their runs
    # interleave in time, and every event recurs in many granules.
    "interleaved": (
        {
            name: "".join("abc"[(i + shift) // period % 3] for i in range(200))
            for name, period, shift in (
                ("A", 2, 0), ("B", 3, 1), ("C", 5, 2), ("D", 7, 3), ("E", 11, 4)
            )
        },
        Alphabet(("a", "b", "c")),
        4,
        False,
    ),
    # "z" and "y" never occur; coded series still carry them as events.
    "unused-symbol": (
        {"A": "ab" * 60 + "b" * 80, "B": "a" * 100 + "ba" * 50},
        Alphabet(("z", "a", "b", "y")),
        3,
        True,
    ),
    "ratio-1": (
        {"A": "aabba" * 40, "B": "ab" * 100, "C": "b" * 150 + "a" * 50},
        Alphabet(("a", "b")),
        1,
        True,
    ),
    # One granule; the trailing 50 symbols are dropped.
    "one-granule": (
        {"A": "ab" * 125, "B": "a" * 100 + "b" * 150},
        Alphabet(("a", "b")),
        200,
        False,
    ),
    "changes-every-instant": (
        {"A": "abc" * 70, "B": "ba" * 105, "C": "cab" * 70, "D": "ab" * 105},
        Alphabet(("a", "b", "c")),
        3,
        True,
    ),
    # Runs spanning many granules, recurring after a gap.
    "long-runs": (
        {"A": "a" * 50 + "b" * 100 + "a" * 60, "B": "b" * 7 + "a" * 203},
        Alphabet(("a", "b")),
        7,
        False,
    ),
}


def _grouped_case(case: str) -> tuple[SymbolicDatabase, int]:
    rows, alphabet, ratio, coded = GROUPED_CASES[case]
    if coded:
        return _coded(rows, alphabet), ratio
    return SymbolicDatabase.from_rows(rows, alphabet), ratio


@pytest.mark.skipif(get_numpy() is None, reason="needs the numpy backend")
class TestGroupedBuilder:
    """The numpy builder's per-event run tables and supports, grouped
    from the whole run pool, against the oracle's row walks."""

    @pytest.mark.parametrize("case", sorted(GROUPED_CASES))
    def test_supports_and_columns_match_oracle(self, case):
        dsyb, ratio = _grouped_case(case)
        assert dsyb.n_instants // ratio * ratio >= _NUMPY_MIN_SYMBOLS
        columnar = build_sequence_database(dsyb, ratio)
        oracle = oracle_dseq(dsyb, ratio)
        assert columnar._run_tables is not None  # the numpy builder ran
        assert _support_positions(columnar) == _support_positions(oracle)
        _assert_columns_match_oracle(columnar, oracle)
        for series in dsyb:
            for event in series.event_keys():
                if event not in oracle.event_support():
                    assert columnar.instance_columns(event) == {}


class TestPrebuiltColumns:
    """Columns cut from the numpy builder's run tables."""

    @pytest.mark.skipif(get_numpy() is None, reason="needs the numpy backend")
    def test_columns_match_row_walks(self, long_dsyb):
        columnar = build_sequence_database(long_dsyb, 3)
        _assert_columns_match_oracle(columnar, oracle_dseq(long_dsyb, 3))
        assert columnar.rows._rows is None  # cut without building a row

    @pytest.mark.skipif(get_numpy() is None, reason="needs the numpy backend")
    def test_append_invalidates(self, long_dsyb):
        from repro.events.sequence import TemporalSequence

        columnar = build_sequence_database(long_dsyb, 3)
        before = columnar.instance_columns("C:1")
        position = len(columnar) + 1
        start = 3 * len(columnar) + 1
        columnar.append_row(
            TemporalSequence(
                position=position,
                instances=[EventInstance("C:1", start, start + 2)],
            ).finalize()
        )
        # The run tables described the pre-append rows; the columns now
        # come from the rows, the new granule included.
        assert columnar.instance_columns("C:1") == {
            **before,
            position: InstanceColumn((start,), (start + 2,)),
        }


@pytest.fixture(scope="module")
def screened_dsyb():
    """Two series whose only events in a middle stretch (``A:2``/``B:2``)
    are too short-lived to pass the coarse gate of
    :data:`SCREENING_PARAMS`, so step 2.1 screens them out."""
    return SymbolicDatabase.from_rows(
        {
            "A": "01" * 60 + "2" * 36 + "01" * 60,
            "B": "0011" * 30 + "2" * 36 + "0011" * 30,
        },
        Alphabet.levels(["0", "1", "2"]),
    )


SCREENING_PARAMS = MiningParams(
    max_period=1, min_density=7, dist_interval=(1, 40), min_season=2
)


class TestInstanceColumns:
    """``instance_columns`` against the oracle's row walks on the
    databases without run tables (numpy-built ones: TestPrebuiltColumns)."""

    def test_pure_built(self, long_dsyb):
        set_compute_backend("python")
        try:
            dseq = build_sequence_database(long_dsyb, 3)
            _assert_columns_match_oracle(dseq, oracle_dseq(long_dsyb, 3))
        finally:
            set_compute_backend(None)

    @pytest.mark.parametrize("screened", [True, False], ids=["screened", "noprune"])
    def test_coarsened(self, screened_dsyb, screened):
        # How the hierarchical miner derives a coarse level: the supports
        # are folded at once, step 2.1 gates them, and the rows are merged
        # on the first column cut -- for the events the gate admits, or
        # for every event when apriori pruning is off.
        coarse = build_sequence_database(screened_dsyb, 3).coarsen(2)
        oracle = oracle_dseq(screened_dsyb, 6)
        assert _support_positions(coarse) == _support_positions(oracle)
        assert coarse.unbuilt_rows() == len(oracle)
        supports = coarse.event_support()
        admitted = {
            event
            for event, support in supports.items()
            if is_season_candidate(support, SCREENING_PARAMS)
        }
        assert 0 < len(admitted) < len(supports)
        _assert_columns_match_oracle(coarse, oracle, admitted if screened else None)
        assert coarse.unbuilt_rows() == 0

    def test_streamed_after_appends(self, long_dsyb):
        database = StreamingDatabase(3, {s.name: s.alphabet for s in long_dsyb})
        streams = {s.name: s.symbols for s in long_dsyb}
        for cut in range(0, long_dsyb.n_instants, 40):
            database.append_symbols(
                {name: symbols[cut : cut + 40] for name, symbols in streams.items()}
            )
        _assert_columns_match_oracle(database.dseq, oracle_dseq(long_dsyb, 3))


def fold_derived(dsyb, ratio):
    """The level ``coarsen(2)`` derives from the built database."""
    return build_sequence_database(dsyb, ratio).coarsen(2)


def oracle_fold_derived(dsyb, ratio):
    """The level ``coarsen(2)`` derives from a database of rows."""
    return oracle_dseq(dsyb, ratio).coarsen(2)


class TestEventSupportPositions:
    """An event support keeps the ascending positions it was packed from,
    on built, row-scanned and fold-derived levels alike."""

    @pytest.mark.parametrize(
        "build",
        [build_sequence_database, oracle_dseq, fold_derived, oracle_fold_derived],
    )
    def test_positions_are_not_rederived(
        self, long_dsyb, compute_backend, monkeypatch, build
    ):
        derive = supportset.bit_positions
        calls = []

        def spy(bits):
            calls.append(bits)
            return derive(bits)

        monkeypatch.setattr(supportset, "bit_positions", spy)
        supports = build(long_dsyb, 3).event_support()
        assert supports
        for support in supports.values():
            assert support.positions() == tuple(derive(support.bits))
        assert calls == []


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

    @pytest.mark.skipif(get_numpy() is None, reason="needs the numpy backend")
    @pytest.mark.parametrize("case", sorted(GROUPED_CASES))
    def test_rows_unbuilt_until_read(self, case):
        # Supports and every event's columns come from the run tables;
        # the row-only sort runs on the first row access.
        dsyb, ratio = _grouped_case(case)
        columnar = build_sequence_database(dsyb, ratio)
        for event in columnar.event_support():
            columnar.instance_columns(event)
        assert columnar.rows._rows is None
        oracle = oracle_dseq(dsyb, ratio)
        assert columnar.rows == oracle.rows
        for left, right in zip(columnar.rows, oracle.rows):
            assert left.events() == right.events()
            for event in right.events():
                assert left.instances_of(event) == right.instances_of(event)

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
