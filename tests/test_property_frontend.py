"""Property-based parity of the vectorized front end.

Random symbol streams and raw series must be handled by the columnar
front end exactly as by the granule-by-granule scalar test oracle
(``dseq_oracle``), under both compute backends: same DSEQ rows and
supports, byte-identical symbolization, and equivalent step-2.1 results.
"""

from __future__ import annotations

from dseq_oracle import each_backend, oracle_dseq
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import (
    Alphabet,
    ESTPM,
    MiningParams,
    SymbolicDatabase,
    build_sequence_database,
)
from repro.core.results import results_equivalent
from repro.streaming import StreamingDatabase
from repro.symbolic.mapping import QuantileMapper, ThresholdMapper
from repro.symbolic.sax import SaxMapper
from repro.symbolic.series import TimeSeries


@st.composite
def databases(draw):
    n_series = draw(st.integers(1, 5))
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


_SMOOTH = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
_HUGE = st.floats(-1e308, 1e308, allow_nan=False, allow_infinity=False)


@st.composite
def raw_series(draw):
    """Smooth series plus hostile ones: constant, shorter than the
    alphabets below (2-5 symbols), values exactly at breakpoints (the
    threshold mapper's 0.0, quantile ties, SAX's 0.0 after
    z-normalisation) and huge finite values."""
    kind = draw(st.sampled_from(["smooth", "constant", "short", "ties", "huge"]))
    if kind == "constant":
        value = draw(st.sampled_from([0.0, 0.1, 1 / 3, -2.5, 1e308]) | _SMOOTH)
        values = [value] * draw(st.integers(1, 240))
    elif kind == "short":
        values = draw(st.lists(_SMOOTH, min_size=1, max_size=4))
    elif kind == "ties":
        values = draw(
            st.lists(
                st.sampled_from([-1.0, 0.0, 0.1, 0.2, 0.3, 1.0]),
                min_size=1,
                max_size=240,
            )
        )
    elif kind == "huge":
        values = draw(
            st.lists(
                st.sampled_from([-1e308, 1e308, 0.0]) | _HUGE, min_size=1, max_size=240
            )
        )
    else:
        values = draw(st.lists(_SMOOTH, min_size=8, max_size=240))
    return TimeSeries("R", tuple(values))


def _encodings(mapper, series):
    """``mapper.encode(series)`` under each compute backend: the symbols,
    or the type of the exception it raised."""
    outcomes = []

    def check():
        try:
            outcomes.append(mapper.encode(series).symbols)
        except Exception as exc:  # noqa: BLE001 -- the type is compared
            outcomes.append(type(exc))

    each_backend(check)
    return outcomes


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

    each_backend(check)


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

    each_backend(check)


@given(raw_series(), st.sampled_from([2, 3, 5]))
@settings(max_examples=60, deadline=None)
def test_quantile_symbolization_byte_parity(series, n_bins):
    alphabet = Alphabet.levels([f"L{i}" for i in range(n_bins)])
    numpy_side, pure_side = _encodings(QuantileMapper(alphabet), series)
    assert numpy_side == pure_side


@given(raw_series(), st.sampled_from([2, 4]), st.sampled_from([1, 2, 3]))
# Twin divergences found by these draws: numpy's rounded mean left a
# constant series a non-zero deviation and put 0.2 below the mean of
# (0.1, 0.2, 0.3) where the pure twin put it above; its PAA sum put a
# whole-series frame mean (0.0 in exact arithmetic) above the 0.0
# breakpoint where the twin put it below.
@example(TimeSeries("R", (0.1,) * 7), 2, 1)
@example(TimeSeries("R", (0.1, 0.2, 0.3)), 2, 1)
@example(TimeSeries("R", (0.0, 582570.0, -242091.0)), 2, 3)
@settings(max_examples=60, deadline=None)
def test_sax_symbolization_byte_parity(series, n_bins, frame):
    alphabet = Alphabet.levels([f"L{i}" for i in range(n_bins)])
    numpy_side, pure_side = _encodings(SaxMapper(alphabet, frame=frame), series)
    assert numpy_side == pure_side


@given(raw_series())
@settings(max_examples=60, deadline=None)
def test_threshold_symbolization_byte_parity(series):
    mapper = ThresholdMapper((0.0,), Alphabet.binary())
    numpy_side, pure_side = _encodings(mapper, series)
    assert numpy_side == pure_side


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

    each_backend(check)
    first = results[0]
    for other in results[1:]:
        assert results_equivalent(first, other)
