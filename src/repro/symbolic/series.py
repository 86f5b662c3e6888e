"""Raw and symbolic time-series containers (paper Def. 3.5).

A :class:`TimeSeries` is a chronologically ordered sequence of float values
sampled at every instant of the finest granularity G.  A
:class:`SymbolicSeries` is its 1-to-1 encoding into alphabet symbols, so it
shares the granularity of the raw series.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from math import isfinite

from repro.core.config import get_numpy
from repro.exceptions import DatasetError, SymbolizationError
from repro.symbolic.alphabet import Alphabet


def first_non_finite(values) -> int | None:
    """Index of the first NaN or infinite value, ``None`` if there is none.

    Clean input costs one C-level pass (``all(map(isfinite, ...))``); only
    a failing series is scanned again for the index.
    """
    if all(map(isfinite, values)):
        return None
    return next(index for index, value in enumerate(values) if not isfinite(value))


@dataclass(frozen=True)
class TimeSeries:
    """A named, uniformly sampled raw series.

    Parameters
    ----------
    name:
        Series identifier, e.g. ``"C"`` (Cooker) or ``"Temperature"``.
    values:
        The data values in chronological order.  NaN and infinite values
        raise :class:`DatasetError`: the numpy and pure-Python mappers
        would encode them differently, so they are rejected here rather
        than turned into symbols.
    """

    name: str
    values: tuple[float, ...]
    #: The values as a read-only float64 numpy array, kept by
    #: :meth:`from_array` when it converts a float array (``None``
    #: otherwise); :meth:`as_array` returns it.
    _array: object = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise SymbolizationError("a time series needs a non-empty name")
        if not self.values:
            raise SymbolizationError(f"time series {self.name!r} has no values")
        np = get_numpy()
        if self._array is not None and np is not None and np.isfinite(self._array).all():
            return  # the kept array, checked in one pass
        bad = first_non_finite(self.values)
        if bad is not None:
            raise DatasetError(
                f"time series {self.name!r} has a non-finite value "
                f"{self.values[bad]!r} at index {bad}"
            )

    @classmethod
    def from_array(cls, name: str, values) -> "TimeSeries":
        """Build from any iterable / numpy array of numbers.

        A one-dimensional numpy array of float64, float32 or float16 is
        copied once to a read-only float64 array, which the series keeps
        for :meth:`as_array`, and converted in C with one ``tolist()``,
        which yields the same Python floats as ``float(v)`` per element;
        the non-finite check is one ``np.isfinite`` over that array.
        Every other input (integer, bool, object and long-double arrays,
        lists, iterables) is converted and checked element by element.
        """
        np = get_numpy()
        if (
            np is not None
            and isinstance(values, np.ndarray)
            and values.ndim == 1
            and values.dtype.kind == "f"
            # long double's tolist() keeps numpy scalars, not floats
            and values.dtype.itemsize <= 8
        ):
            array = values.astype(np.float64)
            array.flags.writeable = False
            return cls(name, tuple(array.tolist()), array)
        return cls(name, tuple(float(v) for v in values))

    def __len__(self) -> int:
        return len(self.values)

    def as_array(self):
        """The values as a read-only float64 numpy array, not a copy.

        A series built by :meth:`from_array` from a float array returns
        the array it keeps; any other series builds one from
        :attr:`values` per call.  No caller writes to it.  Only
        meaningful on the numpy backend; the pure-Python twins work from
        :attr:`values` directly and never call this.
        """
        np = get_numpy()
        if np is None:
            raise SymbolizationError(
                "TimeSeries.as_array() needs the numpy backend "
                "(REPRO_COMPUTE=python selected or numpy unavailable); "
                "use .values on the pure path"
            )
        if self._array is not None:
            return self._array
        array = np.asarray(self.values, dtype=float)
        array.flags.writeable = False
        return array


@dataclass(frozen=True)
class SymbolicSeries:
    """A symbolic series ``XS`` -- the encoded form of one raw series.

    The encoding is 1-to-1 (one symbol per instant), so the symbolic series
    has the same granularity G as the raw series it came from.
    """

    name: str
    symbols: tuple[str, ...]
    alphabet: Alphabet
    #: Optional integer alphabet-index encoding of ``symbols``, attached
    #: by the vectorized mappers (``codes[i]`` indexes
    #: ``alphabet.symbols``).  The columnar DSEQ builder consumes it to
    #: stay in machine arrays end to end; ``None`` whenever the series
    #: was built symbol-first.
    codes: object = field(default=None, repr=False, compare=False, hash=False)
    _counts: Counter = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not self.symbols:
            raise SymbolizationError(f"symbolic series {self.name!r} is empty")
        counts = Counter(self.symbols)
        unknown = set(counts) - set(self.alphabet.symbols)
        if unknown:
            raise SymbolizationError(
                f"series {self.name!r} uses symbols {sorted(unknown)} "
                f"outside its alphabet {self.alphabet.symbols}"
            )
        object.__setattr__(self, "_counts", counts)

    @classmethod
    def from_codes(cls, name: str, codes, alphabet: Alphabet) -> "SymbolicSeries":
        """Build from an integer code array (the vectorized mapper path).

        ``codes`` is an integer array (numpy, or any integer sequence on
        the pure-Python backend) indexing ``alphabet.symbols``.
        The symbol tuple and the per-symbol counts are derived with two
        array operations (``take`` and ``bincount``) instead of the
        per-symbol ``Counter`` validation pass -- the codes themselves
        are range-checked, which implies alphabet membership.
        """
        if len(codes) == 0:
            raise SymbolizationError(f"symbolic series {name!r} is empty")
        n_symbols = len(alphabet.symbols)
        np = get_numpy()
        if np is not None and hasattr(codes, "min"):
            if int(codes.min()) < 0:
                raise SymbolizationError(
                    f"series {name!r} has symbol codes outside its "
                    f"{n_symbols}-symbol alphabet"
                )
            counts = np.bincount(codes, minlength=n_symbols)
            if len(counts) > n_symbols:
                raise SymbolizationError(
                    f"series {name!r} has symbol codes outside its "
                    f"{n_symbols}-symbol alphabet"
                )
            lookup = np.asarray(alphabet.symbols, dtype=object)
            symbols = tuple(lookup[codes].tolist())
            count_map = dict(zip(alphabet.symbols, counts.tolist()))
        else:
            # Pure twin: same range check and count derivation, one pass.
            code_list = [int(code) for code in codes]
            if min(code_list) < 0 or max(code_list) >= n_symbols:
                raise SymbolizationError(
                    f"series {name!r} has symbol codes outside its "
                    f"{n_symbols}-symbol alphabet"
                )
            symbol_lookup = alphabet.symbols
            symbols = tuple(symbol_lookup[code] for code in code_list)
            tally = Counter(code_list)
            count_map = {
                symbol: tally.get(index, 0)
                for index, symbol in enumerate(symbol_lookup)
            }
        series = object.__new__(cls)
        object.__setattr__(series, "name", name)
        object.__setattr__(series, "symbols", symbols)
        object.__setattr__(series, "alphabet", alphabet)
        object.__setattr__(series, "codes", codes)
        object.__setattr__(series, "_counts", Counter(count_map))
        return series

    def __len__(self) -> int:
        return len(self.symbols)

    def __getitem__(self, index: int) -> str:
        return self.symbols[index]

    def event_key(self, symbol: str) -> str:
        """The event identifier ``series:symbol`` used throughout mining.

        The paper writes temporal events as e.g. ``C:1`` -- series C holding
        symbol 1 (Def. 3.7 and Table IV).
        """
        if symbol not in self.alphabet:
            raise SymbolizationError(
                f"symbol {symbol!r} not in alphabet of series {self.name!r}"
            )
        return f"{self.name}:{symbol}"

    def event_keys(self) -> list[str]:
        """All event identifiers this series can produce."""
        return [f"{self.name}:{symbol}" for symbol in self.alphabet]

    def probability(self, symbol: str) -> float:
        """Empirical probability ``p(symbol)`` over the series (Def. 5.1)."""
        return self._counts.get(symbol, 0) / len(self.symbols)

    def probabilities(self) -> dict[str, float]:
        """Empirical distribution over the alphabet (zero-prob symbols kept)."""
        total = len(self.symbols)
        return {symbol: self._counts.get(symbol, 0) / total for symbol in self.alphabet}

    def observed_symbols(self) -> list[str]:
        """Alphabet symbols that actually occur, in alphabet order."""
        return [symbol for symbol in self.alphabet if self._counts.get(symbol, 0) > 0]
