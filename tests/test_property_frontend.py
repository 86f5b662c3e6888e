"""Property-based parity of the vectorized front end.

Random symbol streams and raw series must be handled by the columnar
front end exactly as by the granule-by-granule scalar test oracle
(``dseq_oracle``), under both compute backends: same DSEQ rows and
supports, byte-identical symbolization, and equivalent step-2.1 results.
"""

from __future__ import annotations

from dseq_oracle import oracle_dseq
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    Alphabet,
    ESTPM,
    MiningParams,
    SymbolicDatabase,
    build_sequence_database,
)
from repro.core.config import set_compute_backend
from repro.core.results import results_equivalent
from repro.streaming import StreamingDatabase
from repro.symbolic.mapping import QuantileMapper, ThresholdMapper
from repro.symbolic.sax import SaxMapper
from repro.symbolic.series import TimeSeries


@st.composite
def databases(draw):
    n_series = draw(st.integers(1, 3))
    # Long enough to cross the columnar builder's numpy cut-over in at
    # least some examples (length * ratio vs _NUMPY_MIN_SYMBOLS).
    length = draw(st.integers(4, 260))
    alphabet = draw(st.sampled_from(["01", "abc"]))
    rows = {
        f"S{i}": "".join(
            draw(st.lists(st.sampled_from(alphabet), min_size=length, max_size=length))
        )
        for i in range(n_series)
    }
    ratio = draw(st.integers(1, 5).filter(lambda r: r <= length))
    return SymbolicDatabase.from_rows(rows, Alphabet(tuple(alphabet))), ratio


@st.composite
def raw_series(draw):
    length = draw(st.integers(8, 240))
    values = draw(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=length,
            max_size=length,
        )
    )
    return TimeSeries("R", tuple(values))


def _each_backend(check):
    for backend in (None, "python"):
        set_compute_backend(backend)
        try:
            check()
        finally:
            set_compute_backend(None)


def _rows_and_supports(dseq):
    rows = [(row.position, tuple(row.instances)) for row in dseq.rows]
    supports = {
        event: list(support.positions())
        for event, support in dseq.event_support().items()
    }
    return rows, supports


@given(databases())
@settings(max_examples=60, deadline=None)
def test_columnar_matches_scalar_on_both_backends(db_and_ratio):
    dsyb, ratio = db_and_ratio
    reference = None

    def check():
        nonlocal reference
        columnar = _rows_and_supports(build_sequence_database(dsyb, ratio))
        scalar = _rows_and_supports(oracle_dseq(dsyb, ratio))
        assert columnar == scalar
        if reference is None:
            reference = scalar
        else:
            assert scalar == reference  # backends agree with each other

    _each_backend(check)


@given(databases(), st.integers(1, 3), st.lists(st.integers(1, 40), max_size=6))
@settings(max_examples=40, deadline=None)
def test_derived_rows_match_oracle_on_both_backends(db_and_ratio, factor, pushes):
    """``prefix``, ``coarsen`` and ragged streaming appends all land on
    the oracle's rows."""
    dsyb, ratio = db_and_ratio
    reference = oracle_dseq(dsyb, ratio)
    streams = {series.name: series.symbols for series in dsyb}

    def check():
        dseq = build_sequence_database(dsyb, ratio)
        half = len(dseq) // 2
        assert list(dseq.prefix(half).rows) == list(reference.prefix(half).rows)
        if len(dseq) >= factor:
            coarse = oracle_dseq(dsyb, ratio * factor)
            assert list(dseq.coarsen(factor).rows) == list(coarse.rows)
        database = StreamingDatabase(ratio, {series.name: series.alphabet for series in dsyb})
        cut = 0
        for step in pushes:
            database.append_symbols(
                {name: symbols[cut : cut + step] for name, symbols in streams.items()}
            )
            cut += step
        database.append_symbols({name: symbols[cut:] for name, symbols in streams.items()})
        assert list(database.dseq.rows) == list(reference.rows)

    _each_backend(check)


@given(raw_series(), st.sampled_from([2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_quantile_symbolization_byte_parity(series, n_bins):
    alphabet = Alphabet.levels([f"L{i}" for i in range(n_bins)])
    mapper = QuantileMapper(alphabet)
    streams = []

    def check():
        streams.append(mapper.encode(series).symbols)

    _each_backend(check)
    assert streams[0] == streams[1]


@given(raw_series(), st.sampled_from([2, 4]), st.sampled_from([1, 2, 3]))
@settings(max_examples=60, deadline=None)
def test_sax_symbolization_byte_parity(series, n_bins, frame):
    alphabet = Alphabet.levels([f"L{i}" for i in range(n_bins)])
    mapper = SaxMapper(alphabet, frame=frame)
    streams = []

    def check():
        streams.append(mapper.encode(series).symbols)

    _each_backend(check)
    assert streams[0] == streams[1]


@given(raw_series())
@settings(max_examples=60, deadline=None)
def test_threshold_symbolization_byte_parity(series):
    mapper = ThresholdMapper((0.0,), Alphabet.binary())
    streams = []

    def check():
        streams.append(mapper.encode(series).symbols)

    _each_backend(check)
    assert streams[0] == streams[1]


@given(databases())
@settings(max_examples=25, deadline=None)
def test_step21_results_equivalent_across_frontends(db_and_ratio):
    dsyb, ratio = db_and_ratio
    n_granules = dsyb.n_instants // ratio
    if n_granules < 2:
        return
    params = MiningParams(
        max_period=max(1, n_granules // 3),
        min_density=1,
        dist_interval=(1, max(2, n_granules // 2)),
        min_season=2,
        max_pattern_length=1,
    )
    results = []

    def check():
        for dseq in (build_sequence_database(dsyb, ratio), oracle_dseq(dsyb, ratio)):
            results.append(ESTPM(dseq, params).mine())

    _each_backend(check)
    first = results[0]
    for other in results[1:]:
        assert results_equivalent(first, other)
