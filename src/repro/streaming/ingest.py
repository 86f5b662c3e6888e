"""Online ingestion: raw points -> symbols -> DSEQ granules, incrementally.

The batch pipeline symbolizes whole series (Def. 3.5) and builds the full
DSEQ in one pass (Defs. 3.9-3.11).  Streaming deployments instead receive
a few points per series at a time; this module provides the two online
counterparts:

* :class:`StreamingSymbolizer` -- maps raw values to symbols with either
  *frozen* breakpoints (fitted once on an initial window, so history never
  re-encodes -- the mode under which the subsystem's batch-parity
  guarantee holds) or *rolling* breakpoints (re-fitted on all values seen
  so far, applied to new values only);
* :class:`StreamingDatabase` -- buffers the symbol stream per series and
  extends a live :class:`~repro.transform.sequence_db.TemporalSequenceDatabase`
  granule by granule, without ever rebuilding existing rows.  Whenever
  every series has ``ratio`` unconsumed symbols, one new temporal
  sequence is appended -- by construction identical to the row
  :func:`~repro.transform.sequence_db.build_sequence_database` would have
  produced at that position.
"""

from __future__ import annotations

from bisect import insort
from typing import Sequence

from repro.events.sequence import TemporalSequence
from repro.exceptions import DatasetError, SymbolizationError
from repro.symbolic.alphabet import Alphabet
from repro.symbolic.database import SymbolicDatabase
from repro.symbolic.mapping import (
    SymbolMapper,
    ThresholdMapper,
    interp_quantiles,
    quantile_breakpoints,
)
from repro.symbolic.series import TimeSeries, first_non_finite
from repro.transform.sequence_db import TemporalSequenceDatabase, build_region_rows

MODE_FROZEN = "frozen"
MODE_ROLLING = "rolling"
SYMBOLIZER_MODES = (MODE_FROZEN, MODE_ROLLING)


def quantile_thresholds(values, alphabet: Alphabet) -> ThresholdMapper:
    """Equi-depth breakpoints of ``values``, frozen into a ThresholdMapper.

    Applied to the fitting window itself this reproduces
    :class:`~repro.symbolic.mapping.QuantileMapper` exactly (same
    breakpoints, same side="left" binning); unlike QuantileMapper the
    returned mapper then encodes *future* values without re-fitting.
    Backend-dispatched like the mappers themselves (``np.quantile`` or
    the bit-identical pure-Python twin).
    """
    data = [float(v) for v in values]
    if not data:
        raise SymbolizationError("cannot fit quantile thresholds on no values")
    n_bins = len(alphabet)
    if n_bins == 1:
        return ThresholdMapper((), alphabet)
    return ThresholdMapper(tuple(quantile_breakpoints(data, n_bins)), alphabet)


def _frozen_fit(name: str, values, alphabet: Alphabet) -> ThresholdMapper:
    """Fit frozen breakpoints for one series, rejecting degenerate windows.

    A constant (or single-value) fitting window yields all-equal
    breakpoints, which would silently bin every future value of the
    stream into at most two of the alphabet's symbols -- forever, since
    frozen breakpoints never re-fit.  Rolling mode tolerates such windows
    (the next refit heals them); frozen mode must refuse them.
    """
    mapper = quantile_thresholds(values, alphabet)
    breakpoints = mapper.breakpoints
    data = [float(v) for v in values]
    constant_window = bool(data) and min(data) == max(data)
    collapsed = len(breakpoints) >= 2 and len(set(breakpoints)) == 1
    if breakpoints and (constant_window or collapsed):
        raise SymbolizationError(
            f"degenerate fitting window for series {name!r}: the "
            f"{len(data)}-value window yields all-equal quantile "
            f"breakpoints at {breakpoints[0]!r}, so frozen breakpoints "
            "would bin every future value into at most two of the "
            f"{len(alphabet)} symbols; widen the fitting window, use "
            "rolling mode, or supply a pre-fitted mapper"
        )
    return mapper


class StreamingSymbolizer:
    """Online mapping function ``f: X -> Sigma_X`` over a stream.

    Parameters
    ----------
    alphabets:
        Target alphabet per series name.
    mode:
        ``"frozen"``: breakpoints are fixed (from ``mappers`` or the
        first :meth:`push`, which acts as the fitting window).
        ``"rolling"``: breakpoints re-fit over the full raw history at
        every push and apply to the newly pushed values only.  The refit
        is incremental -- new values sorted-insert into a maintained
        sorted history and the breakpoints interpolate from it in
        O(alphabet) -- so a push costs O(block x log history), not the
        O(history) full re-quantile of the naive formulation; the
        breakpoints are bit-identical to a full refit
        (:func:`~repro.symbolic.mapping.interp_quantiles`).
    mappers:
        Pre-fitted mappers per series (frozen mode only); series without
        a mapper are fitted on their first push.
    """

    def __init__(
        self,
        alphabets: dict[str, Alphabet],
        mode: str = MODE_FROZEN,
        mappers: dict[str, SymbolMapper] | None = None,
    ):
        if mode not in SYMBOLIZER_MODES:
            raise SymbolizationError(
                f"unknown symbolizer mode {mode!r}; choose from {SYMBOLIZER_MODES}"
            )
        if not alphabets:
            raise SymbolizationError("a streaming symbolizer needs >= 1 series")
        self.mode = mode
        self.alphabets = dict(alphabets)
        self.mappers: dict[str, SymbolMapper] = dict(mappers or {})
        for name in self.mappers:
            if name not in self.alphabets:
                raise SymbolizationError(f"mapper for unknown series {name!r}")
        #: Raw history per series (rolling refits; checkpoints restore it).
        self.history: dict[str, list[float]] = {name: [] for name in alphabets}
        #: Sorted twin of ``history`` (rolling mode only), maintained by
        #: sorted insertion; rebuilt lazily when a checkpoint restore
        #: replaces ``history`` wholesale.
        self._sorted_history: dict[str, list[float]] = {}
        #: Work units of the most recent rolling refit (inserted values +
        #: interpolated breakpoints) -- what the O(block) regression test
        #: pins; stays 0 in frozen mode.
        self.last_refit_cost: int = 0

    @classmethod
    def fit(
        cls,
        window: dict[str, Sequence[float]],
        alphabets: dict[str, Alphabet],
        mode: str = MODE_FROZEN,
    ) -> "StreamingSymbolizer":
        """Fit breakpoints on an initial window (without consuming it).

        Callers typically follow with ``push(window)`` so the window's own
        symbols enter the stream.
        """
        symbolizer = cls(alphabets, mode=mode)
        if mode == MODE_FROZEN:
            for name, values in window.items():
                symbolizer.mappers[name] = _frozen_fit(
                    name, values, symbolizer._alphabet_of(name)
                )
        return symbolizer

    def _alphabet_of(self, name: str) -> Alphabet:
        try:
            return self.alphabets[name]
        except KeyError:
            raise SymbolizationError(
                f"unknown series {name!r}; registered: {sorted(self.alphabets)}"
            ) from None

    def push(self, values: dict[str, Sequence[float]]) -> dict[str, tuple[str, ...]]:
        """Symbolize newly arrived raw values, per series.

        Returns the new symbols per series, ready for
        :meth:`StreamingDatabase.append_symbols`.  A rejected push --
        unknown series, a NaN or infinite value (:class:`DatasetError`),
        or a degenerate frozen fitting window (see :func:`_frozen_fit`)
        -- mutates nothing: no series' history or mapper changes, so the
        caller can correct the batch and re-push all of it without
        duplicating instants.
        """
        # Validate everything (series names, finite values, frozen
        # first-push fits) before committing anything, so a multi-series
        # push is atomic.
        blocks: dict[str, tuple[Alphabet, list[float]]] = {}
        for name, block in values.items():
            alphabet = self._alphabet_of(name)
            block_list = [float(v) for v in block]
            bad = first_non_finite(block_list)
            if bad is not None:
                raise DatasetError(
                    f"series {name!r}: non-finite value {block_list[bad]!r} at "
                    f"index {bad} of the push (stream instant "
                    f"{len(self.history[name]) + bad})"
                )
            blocks[name] = (alphabet, block_list)
        fitted: dict[str, SymbolMapper] = {}
        if self.mode == MODE_FROZEN:
            for name, (alphabet, block_list) in blocks.items():
                if block_list and name not in self.mappers:
                    # First push of this series is its fitting window;
                    # degenerate (constant) windows are rejected so the
                    # frozen breakpoints cannot collapse the alphabet.
                    fitted[name] = _frozen_fit(name, block_list, alphabet)
        out: dict[str, tuple[str, ...]] = {}
        for name, (alphabet, block_list) in blocks.items():
            if not block_list:
                out[name] = ()
                continue
            self.history[name].extend(block_list)
            if self.mode == MODE_ROLLING:
                mapper = self._rolling_refit(name, alphabet, block_list)
            else:
                mapper = self.mappers.get(name)
                if mapper is None:
                    mapper = self.mappers[name] = fitted[name]
            encoded = mapper.encode(TimeSeries(name, tuple(block_list)))
            out[name] = encoded.symbols
        return out

    def _rolling_refit(
        self, name: str, alphabet: Alphabet, block: list[float]
    ) -> ThresholdMapper:
        """Re-fit rolling breakpoints after ``block`` joined the history.

        ``self.history[name]`` has already been extended with ``block``.
        The sorted twin absorbs the new values by insertion and the
        breakpoints interpolate straight from it -- identical floats to
        ``quantile_thresholds(self.history[name], alphabet)`` without
        touching the older values.  A sorted twin whose length disagrees
        with the history (checkpoint restore swapped the history out
        underneath us) is rebuilt once from scratch.
        """
        history = self.history[name]
        sorted_history = self._sorted_history.get(name)
        if (
            sorted_history is None
            or len(sorted_history) + len(block) != len(history)
        ):
            sorted_history = self._sorted_history[name] = sorted(history)
        else:
            for value in block:
                insort(sorted_history, value)
        n_bins = len(alphabet)
        self.last_refit_cost = len(block) + (n_bins - 1)
        if n_bins == 1:
            return ThresholdMapper((), alphabet)
        return ThresholdMapper(
            tuple(interp_quantiles(sorted_history, n_bins)), alphabet
        )


class StreamingDatabase:
    """A DSEQ that grows granule by granule from a symbol stream.

    Symbols are buffered per series; whenever every series has ``ratio``
    unconsumed symbols, one :class:`~repro.events.sequence.TemporalSequence`
    is materialized and appended to the live database -- all of a push's
    complete granules in one columnar region pass per series, giving the
    rows :func:`~repro.transform.sequence_db.build_sequence_database`
    builds.  Series may be pushed raggedly (different lengths per call);
    granules form at the pace of the slowest series, exactly preserving
    the lockstep alignment Def. 3.6 requires of a symbolic database.
    """

    def __init__(self, ratio: int, alphabets: dict[str, Alphabet] | None = None):
        if ratio < 1:
            raise SymbolizationError(f"sequence mapping ratio must be >= 1, got {ratio}")
        self.ratio = ratio
        self.alphabets: dict[str, Alphabet] = dict(alphabets or {})
        #: Full symbol history per series, in arrival order.
        self.symbols: dict[str, list[str]] = {
            name: [] for name in self.alphabets
        }
        self._consumed = 0  # instants already materialized into granules
        self.dseq = TemporalSequenceDatabase(
            rows=[], ratio=ratio, source_names=list(self.alphabets)
        )

    @classmethod
    def from_symbolic(cls, dsyb: SymbolicDatabase, ratio: int) -> "StreamingDatabase":
        """Seed a streaming database from an existing DSYB.

        All of the DSYB's symbols are appended immediately, so the
        resulting DSEQ rows equal ``build_sequence_database(dsyb, ratio)``
        (a trailing partial block stays buffered instead of dropped).
        """
        database = cls(ratio, {series.name: series.alphabet for series in dsyb})
        database.append_symbols({series.name: series.symbols for series in dsyb})
        return database

    @property
    def names(self) -> list[str]:
        """Series names, in registration order."""
        return list(self.symbols)

    def register_alphabets(
        self,
        alphabets: dict[str, Alphabet],
        ignore_unknown: bool = False,
    ) -> None:
        """Register symbol alphabets so pushes are validated.

        This closes the lazy-seeding hole where a stream seeded by its
        first :meth:`append_symbols` call carried no alphabets and skipped
        symbol validation forever.  Registration never changes the series
        set: before it is fixed, alphabets are simply recorded and apply
        to whichever of their series the seeding push introduces.  On an
        already seeded stream, unknown series are rejected (or skipped
        with ``ignore_unknown=True`` -- the symbolizer-inheritance path,
        where an alphabet for a series this stream never carries is
        irrelevant), a conflicting re-registration raises, and any
        buffered symbols are validated retroactively.
        """
        seeded = bool(self.symbols)
        for name, alphabet in alphabets.items():
            if seeded and name not in self.symbols:
                if ignore_unknown:
                    continue
                raise SymbolizationError(
                    f"unknown series {name!r}; the stream is fixed to {self.names}"
                )
            existing = self.alphabets.get(name)
            if existing is not None and existing != alphabet:
                raise SymbolizationError(
                    f"conflicting alphabet for series {name!r}: "
                    f"{tuple(existing)} already registered, got {tuple(alphabet)}"
                )
            for symbol in self.symbols.get(name, ()):
                if symbol not in alphabet:
                    raise SymbolizationError(
                        f"buffered symbol {symbol!r} of series {name!r} "
                        f"outside the newly registered alphabet {tuple(alphabet)}"
                    )
            self.alphabets[name] = alphabet

    def pending_instants(self) -> int:
        """Instants of the slowest series not yet materialized."""
        if not self.symbols:
            return 0
        return min(len(s) for s in self.symbols.values()) - self._consumed

    def append_symbols(
        self,
        symbols: dict[str, Sequence[str] | str],
        alphabets: dict[str, Alphabet] | None = None,
    ) -> list[TemporalSequence]:
        """Buffer new symbols and materialize every complete granule.

        The first call fixes the series set (to *its own* keys; a partial
        ``alphabets`` mapping never narrows it); later calls may cover any
        subset of it.  ``alphabets`` registers symbol alphabets on the fly
        (see :meth:`register_alphabets`) -- pass it with the seeding call
        so a stream seeded by its first push validates symbols exactly
        like one constructed with alphabets.  Returns the newly appended
        temporal sequences (the batch a miner advance consumes).
        """
        if alphabets:
            self.register_alphabets(alphabets)
        if not self.symbols:
            if not symbols:
                raise SymbolizationError("cannot seed a streaming DSEQ with no series")
            for name in symbols:
                self.symbols[name] = []
            self.dseq.source_names = list(self.symbols)
            # The series set is now fixed: alphabets recorded for series
            # the stream does not carry can never apply (and would seed a
            # wider, stalling series set on checkpoint restore), so drop
            # them.
            self.alphabets = {
                name: alphabet
                for name, alphabet in self.alphabets.items()
                if name in self.symbols
            }
        for name, block in symbols.items():
            buffer = self.symbols.get(name)
            if buffer is None:
                raise SymbolizationError(
                    f"unknown series {name!r}; the stream is fixed to {self.names}"
                )
            alphabet = self.alphabets.get(name)
            for symbol in block:
                if alphabet is not None and symbol not in alphabet:
                    raise SymbolizationError(
                        f"symbol {symbol!r} outside alphabet of series {name!r}"
                    )
                buffer.append(symbol)
        return self._materialize()

    def _materialize(self) -> list[TemporalSequence]:
        """Turn every complete ``ratio``-block into appended granules.

        All of a push's complete granules are built with one region pass
        per series (:func:`~repro.transform.sequence_db.build_region_rows`).
        """
        n_new = self.pending_instants() // self.ratio
        if n_new <= 0:
            return []
        new_rows = build_region_rows(
            self.symbols,
            self._consumed,
            n_new,
            self.ratio,
            self._consumed // self.ratio + 1,
        )
        for row in new_rows:
            self.dseq.append_row(row)
        self._consumed += n_new * self.ratio
        return new_rows
