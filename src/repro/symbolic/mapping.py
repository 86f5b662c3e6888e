"""Mapping functions ``f: X -> Sigma_X`` (paper Def. 3.5).

Two general-purpose mappers are provided:

* :class:`ThresholdMapper` -- fixed breakpoints chosen by the caller (the
  paper's ON/OFF device example: ``value > 0 -> "1"``).
* :class:`QuantileMapper` -- data-driven equi-depth breakpoints, the common
  choice for weather/energy level symbols (Low / Medium / High ...).

SAX (Lin et al. [41]), which the paper cites as an example mapping, lives in
:mod:`repro.symbolic.sax` and follows the same protocol.

Binning is vectorized on the numpy compute backend (one ``searchsorted``
over the whole series, one object-array lookup for the symbols) with
pure-Python twins under ``REPRO_COMPUTE=python``.  The scalar quantile
helpers replicate numpy's linear-interpolation quantile bit-for-bit so
the two backends emit byte-identical breakpoints.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import isfinite
from typing import Protocol, Sequence, runtime_checkable

from repro.core.config import get_numpy
from repro.exceptions import SymbolizationError
from repro.symbolic.alphabet import Alphabet
from repro.symbolic.series import SymbolicSeries, TimeSeries


@runtime_checkable
class SymbolMapper(Protocol):
    """Protocol for mapping functions from raw values to symbols."""

    def encode(self, series: TimeSeries) -> SymbolicSeries:
        """Encode a raw series into a symbolic series."""
        ...


def interp_quantiles(sorted_values: Sequence[float], n_bins: int) -> list[float]:
    """Interior equi-depth breakpoints of an already-sorted value sequence.

    Pure-Python replica of ``np.quantile(values,
    np.linspace(0, 1, n_bins + 1)[1:-1])`` with the default linear
    interpolation: the probabilities are ``i * (1/n_bins)`` and each
    quantile lerps between its two bracketing order statistics using
    numpy's exact ``_lerp`` formula (``b - d*(1-t)`` for ``t >= 0.5``),
    so the breakpoints match the numpy path to the last bit.  Where the
    spread ``b - a`` of two finite values overflows, that formula gives
    inf or nan; such a breakpoint is ``a`` at ``t = 0`` and otherwise
    ``a*(1-t) + b*t``, which cannot overflow.  The streaming rolling
    refit calls this directly on its incrementally maintained sorted
    history -- O(n_bins) per refit, no re-sort.
    """
    n = len(sorted_values)
    step = 1.0 / n_bins
    breakpoints: list[float] = []
    for i in range(1, n_bins):
        position = (i * step) * (n - 1)
        low = int(position)
        t = position - low
        a = sorted_values[low]
        b = sorted_values[low + 1] if low + 1 < n else a
        d = b - a
        if not isfinite(d):
            breakpoints.append(a if t == 0 else a * (1.0 - t) + b * t)
        else:
            breakpoints.append(b - d * (1.0 - t) if t >= 0.5 else a + d * t)
    return breakpoints


def quantile_breakpoints(values: Sequence[float], n_bins: int) -> list[float]:
    """Interior equi-depth breakpoints of ``values`` (any order).

    Dispatches to ``np.quantile`` on the numpy backend and to the
    sort + :func:`interp_quantiles` twin otherwise; both produce the
    same floats.  A non-finite ``np.quantile`` breakpoint comes from an
    interpolation whose spread overflowed; it is replaced by the twin's
    overflow-free one, and every other breakpoint keeps numpy's bits.
    """
    np = get_numpy()
    if np is not None:
        quantiles = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        with np.errstate(over="ignore", invalid="ignore"):
            breakpoints = np.quantile(np.asarray(values, dtype=float), quantiles)
        result = [float(b) for b in breakpoints]
        if all(isfinite(b) for b in result):
            return result
        twin = interp_quantiles(sorted(float(v) for v in values), n_bins)
        return [b if isfinite(b) else t for b, t in zip(result, twin)]
    return interp_quantiles(sorted(float(v) for v in values), n_bins)


def _encode_with_breakpoints(
    series: TimeSeries, breakpoints: Sequence[float], alphabet: Alphabet
) -> SymbolicSeries:
    """Shared binning core: value v gets bin ``#{b in breakpoints : b < v}``.

    A value equal to a breakpoint stays in the lower bin, so the paper's
    device example (breakpoint 0.0) maps a 0.0 reading to OFF.
    ``len(breakpoints)`` must be ``len(alphabet) - 1``; bins map to alphabet
    symbols in order (lowest bin -> first symbol).
    """
    if len(breakpoints) != len(alphabet) - 1:
        raise SymbolizationError(
            f"{len(alphabet)} symbols need {len(alphabet) - 1} breakpoints, "
            f"got {len(breakpoints)}"
        )
    if any(b < a for a, b in zip(breakpoints, breakpoints[1:])):
        raise SymbolizationError("breakpoints must be non-decreasing")
    np = get_numpy()
    if np is not None:
        bins = np.searchsorted(
            np.asarray(breakpoints, dtype=float), series.as_array(), side="left"
        )
        return SymbolicSeries.from_codes(series.name, bins, alphabet)
    else:
        points = [float(b) for b in breakpoints]
        alphabet_symbols = alphabet.symbols
        symbols = tuple(
            alphabet_symbols[bisect_left(points, value)] for value in series.values
        )
    return SymbolicSeries(series.name, symbols, alphabet)


@dataclass(frozen=True)
class ThresholdMapper:
    """Fixed-breakpoint binning.

    ``breakpoints`` are the bin upper bounds (inclusive): a value ``v`` maps
    to the first symbol whose breakpoint is ``>= v``; values above every
    breakpoint map to the last symbol.

    Example: ``ThresholdMapper((0.0,), Alphabet.binary())`` encodes the
    paper's device-energy series: values ``<= 0`` become ``"0"`` (OFF) and
    values ``> 0`` become ``"1"`` (ON).
    """

    breakpoints: tuple[float, ...]
    alphabet: Alphabet

    def encode(self, series: TimeSeries) -> SymbolicSeries:
        return _encode_with_breakpoints(series, self.breakpoints, self.alphabet)


@dataclass(frozen=True)
class QuantileMapper:
    """Equi-depth binning: breakpoints at the empirical quantiles.

    With alphabet ``(Low, Medium, High)`` the breakpoints sit at the 1/3 and
    2/3 quantiles of the series' own values, so each symbol covers roughly
    the same number of instants.
    """

    alphabet: Alphabet

    def encode(self, series: TimeSeries) -> SymbolicSeries:
        n_bins = len(self.alphabet)
        if n_bins == 1:
            return SymbolicSeries(
                series.name, (self.alphabet.symbols[0],) * len(series), self.alphabet
            )
        values = series.as_array() if get_numpy() is not None else series.values
        breakpoints = quantile_breakpoints(values, n_bins)
        return _encode_with_breakpoints(series, breakpoints, self.alphabet)
