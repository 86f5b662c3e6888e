"""SAX symbolization (Lin et al. [41], cited by paper Def. 3.5).

Classic SAX z-normalizes a series and bins it with breakpoints that divide
the standard normal distribution into equiprobable regions.  We implement
the standard two steps:

* optional PAA (piecewise aggregate approximation) with frame size ``w``;
* Gaussian equiprobable breakpoints via the normal quantile function.

The normal quantile is computed with the Acklam rational approximation so
the core library stays scipy-free (scipy is only a test dependency).

The z-normalisation and the binning are vectorized when the numpy
compute backend is active (one ``searchsorted`` + object-array lookup for
all symbols) and fall back to pure-Python twins under
``REPRO_COMPUTE=python`` -- see :func:`repro.core.config.get_numpy`.  The
moments and the PAA frame means are ``math.fsum`` sums under both, so
the twins put a value that sits on a breakpoint on the same side of it.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from repro.core.config import get_numpy
from repro.exceptions import SymbolizationError
from repro.symbolic.alphabet import Alphabet
from repro.symbolic.series import SymbolicSeries, TimeSeries

# Acklam's rational approximation coefficients for the inverse normal CDF.
_A = (
    -3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
    1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00,
)
_B = (
    -5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
    6.680131188771972e01, -1.328068155288572e01,
)
_C = (
    -7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
    -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00,
)
_D = (
    7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
    3.754408661907416e00,
)
_P_LOW = 0.02425
_P_HIGH = 1.0 - _P_LOW


def inverse_normal_cdf(p: float) -> float:
    """Quantile function of the standard normal (Acklam approximation).

    Accurate to ~1.15e-9 over (0, 1); raises for p outside (0, 1).
    """
    if not 0.0 < p < 1.0:
        raise SymbolizationError(f"quantile probability must be in (0,1), got {p}")
    if p < _P_LOW:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    if p > _P_HIGH:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4]) * q + _C[5]) / (
            (((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4]) * r + _A[5]) * q / (
        ((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r + _B[4]) * r + 1.0
    )


def sax_breakpoints(alphabet_size: int) -> tuple[float, ...]:
    """Equiprobable standard-normal breakpoints for ``alphabet_size`` bins."""
    if alphabet_size < 2:
        raise SymbolizationError(f"SAX needs an alphabet of >= 2, got {alphabet_size}")
    return tuple(
        inverse_normal_cdf(i / alphabet_size) for i in range(1, alphabet_size)
    )


def paa(values, frame: int):
    """Piecewise aggregate approximation with frame size ``frame``.

    Trailing values that do not fill a frame are averaged into a final
    shorter frame, so no data is silently dropped.  Returns a numpy array
    on the numpy backend and a plain list under ``REPRO_COMPUTE=python``.
    Both average each frame with ``math.fsum``: a summation order of
    numpy's own would move a frame mean that sits on a breakpoint (the
    mean of a z-normalised frame covering the whole series is 0.0) to
    the other side of it.
    """
    if frame < 1:
        raise SymbolizationError(f"PAA frame size must be >= 1, got {frame}")
    np = get_numpy()
    if frame == 1:
        return [float(v) for v in values] if np is None else np.array(values, dtype=float)
    data = [float(v) for v in values]
    means = []
    for start in range(0, len(data), frame):
        chunk = data[start : start + frame]
        means.append(math.fsum(chunk) / len(chunk))
    return means if np is None else np.asarray(means)


def _moments(series: TimeSeries) -> tuple[float, float]:
    """The z-normalisation mean and standard deviation of ``series``.

    Both compute backends use these same floats (``math.fsum`` over the
    values), so they z-normalise identically: numpy's own ``mean`` sums
    in another order, which moves a value that sits exactly on a
    breakpoint to the other side of it.  Raises for moments that are not
    finite (finite values too close to the float range).
    """
    values = series.values
    n = len(values)
    try:
        mean = math.fsum(values) / n
        std = math.sqrt(math.fsum((v - mean) * (v - mean) for v in values) / n)
    except OverflowError:
        mean = std = math.inf
    if not (math.isfinite(mean) and math.isfinite(std)):
        raise SymbolizationError(
            f"series {series.name!r}: the SAX z-normalisation mean or "
            "standard deviation is not finite; rescale the values"
        )
    return mean, std


@dataclass(frozen=True)
class SaxMapper:
    """SAX mapping: z-normalize, (optionally) PAA, bin with normal breakpoints.

    Note on granularity: the paper's Def. 3.5 requires the mapping to be
    1-to-1 per instant, so by default ``frame == 1`` (no PAA).  With
    ``frame > 1`` each PAA frame's symbol is repeated ``frame`` times to
    keep the output aligned with the input instants.
    """

    alphabet: Alphabet
    frame: int = 1

    def encode(self, series: TimeSeries) -> SymbolicSeries:
        mean, std = _moments(series)
        # A constant series z-normalizes to all-zeros: middle symbol.  It
        # is tested exactly, since a rounded mean can leave a constant
        # series a tiny non-zero deviation.
        if std == 0.0 or min(series.values) == max(series.values):
            mid = self.alphabet.symbols[len(self.alphabet) // 2]
            return SymbolicSeries(series.name, (mid,) * len(series), self.alphabet)
        np = get_numpy()
        if np is None:
            return self._encode_scalar(series, mean, std)
        normalized = (series.as_array() - mean) / std
        frames = paa(normalized, self.frame)
        breakpoints = np.asarray(sax_breakpoints(len(self.alphabet)))
        bins = np.searchsorted(breakpoints, frames, side="right")
        codes = bins if self.frame == 1 else np.repeat(bins, self.frame)
        codes = codes[: len(series)]
        if len(codes) < len(series):  # short trailing frame was averaged
            codes = np.append(codes, np.full(len(series) - len(codes), codes[-1]))
        return SymbolicSeries.from_codes(series.name, codes, self.alphabet)

    def _encode_scalar(
        self, series: TimeSeries, mean: float, std: float
    ) -> SymbolicSeries:
        """Pure-Python twin of :meth:`encode` (``REPRO_COMPUTE=python``)."""
        n = len(series)
        normalized = [(v - mean) / std for v in series.values]
        frames = paa(normalized, self.frame)
        breakpoints = sax_breakpoints(len(self.alphabet))
        alphabet_symbols = self.alphabet.symbols
        symbols: list[str] = []
        for value in frames:
            symbol = alphabet_symbols[bisect_right(breakpoints, value)]
            symbols.extend([symbol] * self.frame)
        symbols = symbols[:n]
        if len(symbols) < n:  # short trailing frame was averaged
            symbols.extend([symbols[-1]] * (n - len(symbols)))
        return SymbolicSeries(series.name, tuple(symbols), self.alphabet)
