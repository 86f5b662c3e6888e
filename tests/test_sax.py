"""Unit tests for the SAX mapper (Lin et al. [41])."""

import warnings

import numpy as np
import pytest
from scipy.stats import norm

from repro.exceptions import SymbolizationError
from repro.symbolic import Alphabet, SaxMapper, TimeSeries, sax_breakpoints
from repro.symbolic.sax import inverse_normal_cdf, paa


class TestInverseNormalCdf:
    @pytest.mark.parametrize("p", [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999])
    def test_matches_scipy(self, p):
        assert inverse_normal_cdf(p) == pytest.approx(norm.ppf(p), abs=1e-8)

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.1])
    def test_domain_enforced(self, p):
        with pytest.raises(SymbolizationError):
            inverse_normal_cdf(p)


class TestBreakpoints:
    def test_equiprobable(self):
        # Classic SAX table for alphabet size 4: -0.67, 0, 0.67.
        points = sax_breakpoints(4)
        assert points == pytest.approx([-0.6745, 0.0, 0.6745], abs=1e-3)

    def test_sizes(self):
        assert len(sax_breakpoints(2)) == 1
        assert len(sax_breakpoints(8)) == 7

    def test_too_small_alphabet(self):
        with pytest.raises(SymbolizationError):
            sax_breakpoints(1)


class TestPaa:
    def test_exact_frames(self):
        values = np.array([1.0, 3.0, 5.0, 7.0])
        assert paa(values, 2).tolist() == [2.0, 6.0]

    def test_trailing_partial_frame_is_averaged(self):
        values = np.array([2.0, 2.0, 8.0])
        assert paa(values, 2).tolist() == [2.0, 8.0]

    def test_frame_one_is_identity(self):
        values = np.array([1.0, 2.0])
        assert paa(values, 1).tolist() == [1.0, 2.0]

    def test_invalid_frame(self):
        with pytest.raises(SymbolizationError):
            paa(np.array([1.0]), 0)


class TestSaxMapper:
    def test_balanced_bins_on_gaussian_data(self):
        rng = np.random.default_rng(1)
        series = TimeSeries.from_array("X", rng.normal(size=3000))
        alphabet = Alphabet.levels(["a", "b", "c", "d"])
        encoded = SaxMapper(alphabet).encode(series)
        counts = np.array([encoded.symbols.count(s) for s in alphabet])
        # Equiprobable breakpoints: each bin ~25%.
        assert (abs(counts / 3000 - 0.25) < 0.05).all()

    def test_constant_series_maps_to_middle_symbol(self):
        series = TimeSeries("X", (5.0, 5.0, 5.0))
        alphabet = Alphabet.levels(["a", "b", "c"])
        encoded = SaxMapper(alphabet).encode(series)
        assert set(encoded.symbols) == {"b"}

    def test_output_length_preserved_with_paa(self):
        series = TimeSeries.from_array("X", np.arange(10, dtype=float))
        encoded = SaxMapper(Alphabet.levels(["a", "b"]), frame=3).encode(series)
        assert len(encoded) == 10

    def test_scale_invariance(self):
        rng = np.random.default_rng(2)
        values = rng.normal(size=200)
        alphabet = Alphabet.levels(["a", "b", "c"])
        base = SaxMapper(alphabet).encode(TimeSeries.from_array("X", values))
        scaled = SaxMapper(alphabet).encode(
            TimeSeries.from_array("Y", 7.0 * values + 3.0)
        )
        assert base.symbols == scaled.symbols

    @pytest.mark.parametrize(
        "values",
        [(1e200, 2e200, 3e200), (1e308, 1e308, 0.0)],
        ids=["std-overflows", "mean-overflows"],
    )
    def test_overflowing_moments_rejected_by_both_twins(
        self, compute_backend, values
    ):
        series = TimeSeries("X", values)
        mapper = SaxMapper(Alphabet.levels(["L", "M", "H"]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SymbolizationError, match="series 'X'.*not finite"):
                mapper.encode(series)
