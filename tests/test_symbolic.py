"""Unit tests for alphabets, series, mappers and DSYB (paper Sec. III-B)."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core.config import get_numpy
from repro.exceptions import SymbolizationError
from repro.symbolic import (
    Alphabet,
    QuantileMapper,
    SymbolicDatabase,
    SymbolicSeries,
    ThresholdMapper,
    TimeSeries,
)
from repro.streaming.ingest import StreamingSymbolizer
from repro.symbolic.mapping import quantile_breakpoints
from repro.symbolic.sax import SaxMapper


class TestAlphabet:
    def test_binary(self):
        alphabet = Alphabet.binary()
        assert list(alphabet) == ["0", "1"]
        assert "1" in alphabet
        assert alphabet.index("1") == 1

    def test_levels(self):
        alphabet = Alphabet.levels(["Low", "High"])
        assert len(alphabet) == 2
        assert alphabet.index("Low") == 0

    def test_unknown_symbol(self):
        with pytest.raises(SymbolizationError):
            Alphabet.binary().index("x")

    def test_duplicates_rejected(self):
        with pytest.raises(SymbolizationError):
            Alphabet(("a", "a"))

    def test_empty_rejected(self):
        with pytest.raises(SymbolizationError):
            Alphabet(())


class TestTimeSeries:
    def test_from_array(self):
        series = TimeSeries.from_array("X", np.array([1, 2, 3]))
        assert len(series) == 3
        assert series.values == (1.0, 2.0, 3.0)
        if get_numpy() is None:
            with pytest.raises(SymbolizationError):
                series.as_array()  # a numpy-only view
        else:
            assert series.as_array().dtype == float

    @pytest.mark.parametrize(
        "values",
        [
            np.array([0.1, -0.0, 5e-324, -1e308, 2.5]),
            np.arange(10.0)[::3],
            np.array([0.1, -0.0, 1e-40, -3.4e38], dtype=np.float32),
            np.array([0.1, -0.0, 6e-8, 65504.0], dtype=np.float16),
            np.array([0.1, 2.5], dtype=np.longdouble),
            np.array([3, -7, 2**53 + 1, 0], dtype=np.int64),
            np.array([True, False, True]),
            np.array([1, 0.1, Fraction(1, 3), np.float32(0.1)], dtype=object),
            [1, 0.1, -0.0, True],
        ],
        ids=[
            "float64", "float64-strided", "float32", "float16", "longdouble",
            "int64", "bool", "object", "list",
        ],
    )
    def test_from_array_converts_like_float(self, values, compute_backend):
        expected = tuple(float(v) for v in values)
        series = TimeSeries.from_array("X", values)
        converted = series.values
        assert [type(v) for v in converted] == [float] * len(expected)
        assert [v.hex() for v in converted] == [v.hex() for v in expected]
        if get_numpy() is not None:
            # The float64 array the series keeps (or builds), read-only.
            array = series.as_array()
            assert array.dtype == np.float64
            assert [v.hex() for v in array.tolist()] == [
                v.hex() for v in np.asarray(converted, dtype=float).tolist()
            ]
            with pytest.raises(ValueError):
                array[0] = 1.0

    def test_empty_rejected(self):
        with pytest.raises(SymbolizationError):
            TimeSeries("X", ())

    def test_unnamed_rejected(self):
        with pytest.raises(SymbolizationError):
            TimeSeries("", (1.0,))


class TestSymbolicSeries:
    def test_paper_device_example(self):
        # X = 1.82, 1.25, 0.46, 0.0 with ON/OFF symbols gives 1,1,1,0.
        raw = TimeSeries("X", (1.82, 1.25, 0.46, 0.0))
        mapper = ThresholdMapper((0.0,), Alphabet.binary())
        encoded = mapper.encode(raw)
        assert encoded.symbols == ("1", "1", "1", "0")

    def test_event_keys(self):
        series = SymbolicSeries("C", tuple("110"), Alphabet.binary())
        assert series.event_key("1") == "C:1"
        assert series.event_keys() == ["C:0", "C:1"]
        with pytest.raises(SymbolizationError):
            series.event_key("x")

    def test_probabilities(self):
        series = SymbolicSeries("C", tuple("1100"), Alphabet.binary())
        assert series.probability("1") == 0.5
        assert series.probabilities() == {"0": 0.5, "1": 0.5}

    def test_observed_symbols(self):
        series = SymbolicSeries("C", tuple("111"), Alphabet.binary())
        assert series.observed_symbols() == ["1"]

    def test_symbols_outside_alphabet_rejected(self):
        with pytest.raises(SymbolizationError):
            SymbolicSeries("C", ("2",), Alphabet.binary())


class TestMappers:
    def test_threshold_breakpoint_count_validated(self):
        mapper = ThresholdMapper((0.0, 1.0), Alphabet.binary())
        with pytest.raises(SymbolizationError):
            mapper.encode(TimeSeries("X", (1.0,)))

    def test_threshold_breakpoints_must_be_sorted(self):
        alphabet = Alphabet.levels(["a", "b", "c"])
        mapper = ThresholdMapper((2.0, 1.0), alphabet)
        with pytest.raises(SymbolizationError):
            mapper.encode(TimeSeries("X", (1.0,)))

    def test_quantile_balances_bins(self):
        alphabet = Alphabet.levels(["Low", "Medium", "High"])
        series = TimeSeries.from_array("X", np.arange(300))
        encoded = QuantileMapper(alphabet).encode(series)
        counts = {s: encoded.symbols.count(s) for s in alphabet}
        assert max(counts.values()) - min(counts.values()) <= 2

    def test_quantile_single_symbol(self):
        alphabet = Alphabet.levels(["only"])
        encoded = QuantileMapper(alphabet).encode(TimeSeries("X", (1.0, 2.0)))
        assert set(encoded.symbols) == {"only"}

    def test_quantile_breakpoint_of_an_overflowing_spread(self, compute_backend):
        # The median sits between -1e308 and 1e308, whose difference
        # overflows: the breakpoint is the lower value, not nan.
        values = (-1e308, -1e308, 1e308)
        assert quantile_breakpoints(values, 2) == [-1e308]
        assert quantile_breakpoints(values, 4) == [-1e308, -1e308, 0.0]
        alphabet = Alphabet.levels(["L", "H"])
        encoded = QuantileMapper(alphabet).encode(TimeSeries("X", values))
        assert encoded.symbols == ("L", "L", "H")
        # The streaming fit and the rolling refit share the breakpoints.
        for mode in ("frozen", "rolling"):
            pushed = StreamingSymbolizer({"X": alphabet}, mode).push({"X": values})
            assert pushed["X"] == ("L", "L", "H")

    @pytest.mark.parametrize(
        "mapper",
        [
            QuantileMapper(Alphabet.levels(["L", "M", "H"])),
            ThresholdMapper((-0.5, 0.25), Alphabet.levels(["L", "M", "H"])),
            SaxMapper(Alphabet.levels(["a", "b", "c", "d"])),
        ],
        ids=["quantile", "threshold", "sax"],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_array_and_tuple_series_encode_alike(self, mapper, dtype, compute_backend):
        values = (np.sin(np.arange(240) / 7.0) + np.arange(240) % 5 / 10.0).astype(dtype)
        from_array = mapper.encode(TimeSeries.from_array("X", values))
        from_tuple = mapper.encode(TimeSeries("X", tuple(float(v) for v in values)))
        assert from_array.symbols == from_tuple.symbols
        assert (from_array.codes is None) == (from_tuple.codes is None)
        if from_array.codes is not None:
            assert list(from_array.codes) == list(from_tuple.codes)

    def test_quantile_preserves_monotone_transforms(self):
        # The property A-STPM's duplicate families rely on.
        alphabet = Alphabet.levels(["L", "M", "H"])
        rng = np.random.default_rng(0)
        values = rng.normal(size=500)
        a = QuantileMapper(alphabet).encode(TimeSeries.from_array("A", values))
        b = QuantileMapper(alphabet).encode(
            TimeSeries.from_array("B", 3.5 * values + 11.0)
        )
        assert a.symbols == b.symbols


class TestSymbolicDatabase:
    def test_from_rows(self):
        dsyb = SymbolicDatabase.from_rows({"C": "110", "D": "011"})
        assert len(dsyb) == 2
        assert dsyb.n_instants == 3
        assert dsyb.names == ["C", "D"]
        assert dsyb["C"].symbols == ("1", "1", "0")
        assert "C" in dsyb and "Z" not in dsyb

    def test_event_keys(self):
        dsyb = SymbolicDatabase.from_rows({"C": "10"})
        assert dsyb.event_keys() == ["C:0", "C:1"]

    def test_subset(self):
        dsyb = SymbolicDatabase.from_rows({"C": "10", "D": "01", "E": "11"})
        subset = dsyb.subset(["C", "E"])
        assert subset.names == ["C", "E"]

    def test_length_mismatch_rejected(self):
        dsyb = SymbolicDatabase.from_rows({"C": "10"})
        with pytest.raises(SymbolizationError):
            dsyb.add(SymbolicSeries("D", tuple("101"), Alphabet.binary()))

    def test_duplicate_name_rejected(self):
        dsyb = SymbolicDatabase.from_rows({"C": "10"})
        with pytest.raises(SymbolizationError):
            dsyb.add(SymbolicSeries("C", tuple("01"), Alphabet.binary()))

    def test_missing_series_raises(self):
        dsyb = SymbolicDatabase.from_rows({"C": "10"})
        with pytest.raises(SymbolizationError):
            dsyb["missing"]

    def test_empty_database_guards(self):
        with pytest.raises(SymbolizationError):
            SymbolicDatabase().n_instants

    def test_from_raw_uses_shared_mapper(self):
        raws = [TimeSeries("A", (0.0, 2.0)), TimeSeries("B", (3.0, 0.0))]
        dsyb = SymbolicDatabase.from_raw(raws, ThresholdMapper((1.0,), Alphabet.binary()))
        assert dsyb["A"].symbols == ("0", "1")
        assert dsyb["B"].symbols == ("1", "0")
