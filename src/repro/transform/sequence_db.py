"""The temporal sequence database ``DSEQ`` (paper Defs. 3.9-3.11).

The sequence mapping ``g: XS ->m H`` groups every ``m`` adjacent symbols of
a symbolic series into one coarse granule ``Hi``; inside a granule,
consecutive identical symbols become one event instance (Def. 3.10).
Instances never span granule boundaries -- exactly as in the paper's Table
IV, where C's ON-run over G19..G24 appears as ``(C:1,[G19,G21])`` in H7 and
``(C:1,[G22,G24])`` in H8.

Instance intervals keep *global* fine-granule positions so that all
relation arithmetic is uniform across granules.

Columnar front end
------------------
:func:`build_sequence_database` makes one pass over each series' symbol
stream: run boundaries are found for the whole stream at once (vectorized
when numpy is enabled, a single scalar sweep otherwise) and every run
feeds the per-event support positions.  The numpy builder pools the runs
of all series and groups them by event with one stable sort, so each
event's run table and support positions are slices of the grouped pool.
It keeps every event's support positions as one flat array, a
:class:`_PositionPool`, and each whole-level step runs on that array
once: packing the supports (:meth:`TemporalSequenceDatabase.event_support`),
folding them to a coarser level (:meth:`~TemporalSequenceDatabase.coarsen`,
whose result keeps its own pool) and splitting them into near support
sets (:meth:`~TemporalSequenceDatabase.near_support_sets`).  The pure
builder keeps a position list per event, and each step has a per-event
pure-Python twin, which also serves databases assembled from rows or
streamed.  The granule rows are deferred behind a thunk under both builders, and
:meth:`TemporalSequenceDatabase.coarsen` defers its row merge the same
way; the numpy builder's canonical instance sort runs only there, when
something first reads a row.

Instance columns
----------------
:meth:`TemporalSequenceDatabase.instance_columns` is the one source of
the per ``(event, granule)``
:class:`~repro.core.instance_index.InstanceColumn` tables step 2.1 hands
to HLH1, for every database: cut from the numpy builder's run tables
when it has them (so the rows are never built), from the rows otherwise.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from itertools import groupby
from typing import NamedTuple, Sequence

from repro.core.config import get_numpy
from repro.core.instance_index import InstanceColumn
from repro.core.seasonality import iter_near_sets
from repro.core.supportset import SupportSet
from repro.events.event import EventInstance
from repro.events.sequence import TemporalSequence
from repro.exceptions import TransformError
from repro.obs import counters as metrics
from repro.obs.trace import span
from repro.symbolic.database import SymbolicDatabase

#: Symbol-stream length at or above which the columnar run detection
#: switches to numpy (below it, the array round trip costs more than the
#: scalar sweep saves).
_NUMPY_MIN_SYMBOLS = 192


class _PositionPool(NamedTuple):
    """Every event's support positions as one flat array.

    ``positions`` is a numpy int32 array holding each event's ascending
    positions back to back: ``events[i]``'s are
    ``positions[offsets[i]:offsets[i + 1]]``, and every event listed has
    at least one.
    """

    events: list[str]
    positions: object
    offsets: list[int]


class _LazyRows:
    """Granule rows materialized on first element access.

    The columnar builders derive everything mining needs -- per-event
    support positions and flat run tables -- before a single
    :class:`TemporalSequence` exists, and :meth:`TemporalSequenceDatabase.coarsen`
    folds the supports without merging a row, so a step-2.1-only run
    (``max_pattern_length == 1``) never reads the rows at all.
    Deferring their construction behind a thunk makes that common case
    pay nothing for row objects; the first indexing, iteration, append,
    or comparison builds them exactly once (``len()`` answers from the
    known row count without materializing).  Pickling degrades to a
    plain list so a pickle never holds the builder closure.
    """

    __slots__ = ("_rows", "_n_rows", "_build", "_lock")

    def __init__(self, n_rows, build):
        self._rows: list[TemporalSequence] | None = None
        self._n_rows = n_rows
        self._build = build
        self._lock = threading.Lock()

    def _materialized(self) -> list[TemporalSequence]:
        rows = self._rows
        if rows is None:
            with self._lock:
                if self._rows is None:
                    self._rows = self._build()
                    self._build = None
                rows = self._rows
        return rows

    def __len__(self) -> int:
        rows = self._rows
        return self._n_rows if rows is None else len(rows)

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        return iter(self._materialized())

    def __getitem__(self, index):
        return self._materialized()[index]

    def append(self, row) -> None:
        self._materialized().append(row)

    def __eq__(self, other) -> bool:
        if isinstance(other, _LazyRows):
            other = other._materialized()
        return self._materialized() == other

    def __reduce__(self):
        return (list, (self._materialized(),))


@dataclass
class TemporalSequenceDatabase:
    """``DSEQ``: one :class:`TemporalSequence` per coarse granule.

    Attributes
    ----------
    rows:
        Sequences in granule-position order (``rows[0]`` is position 1).
    ratio:
        The m of the sequence mapping ``g: XS ->m H``.
    source_names:
        The series names of the originating DSYB (kept for A-STPM, which
        prunes series before mining).
    """

    rows: list[TemporalSequence]
    ratio: int
    source_names: list[str] = field(default_factory=list)
    #: Per-event supports, filled by the first :meth:`event_support` call.
    _support_cache: dict[str, SupportSet] | None = field(
        default=None, repr=False, compare=False
    )
    #: Per-event ascending support positions, primed by the pure-Python
    #: builder and fold and consumed by the first :meth:`event_support`
    #: call (``None`` on numpy-built and numpy-folded databases, which
    #: hold :attr:`_position_pool` instead, and on databases assembled
    #: from rows -- supports are then recomputed by scanning the rows).
    _event_positions: dict[str, list[int]] | None = field(
        default=None, repr=False, compare=False
    )
    #: Every event's support positions in one flat array, primed by the
    #: numpy builder and the numpy fold (see :class:`_PositionPool`); it
    #: stays after :meth:`event_support`, for :meth:`coarsen` and
    #: :meth:`near_support_sets`.
    _position_pool: _PositionPool | None = field(
        default=None, repr=False, compare=False
    )
    #: Per-event flat run tables primed by the numpy builder:
    #: ``event -> (granule positions per run, starts, ends)``, three
    #: numpy arrays, run-aligned and non-decreasing by position.
    #: :meth:`instance_columns` cuts an event's columns from them; the
    #: arrays stay arrays until then.
    _run_tables: dict[str, tuple] | None = field(
        default=None, repr=False, compare=False
    )

    def __getstate__(self):
        """Pickle every field, the primed tables included on purpose, so
        an unpickled copy skips the row scans."""
        return dict(self.__dict__)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def sequence_at(self, position: int) -> TemporalSequence:
        """The temporal sequence of the granule at 1-based ``position``."""
        if not 1 <= position <= len(self.rows):
            raise TransformError(
                f"granule position {position} outside [1, {len(self.rows)}]"
            )
        return self.rows[position - 1]

    def event_support(self) -> dict[str, SupportSet]:
        """Support set per event, as :class:`SupportSet` objects.

        This is the ``SUP_E`` of Def. 3.12 for every event, computed with a
        single scan of DSEQ (as Alg. 1 step 2.1 requires) and cached; a
        coarsened database serves the folded fine supports instead
        (:meth:`coarsen`).  The returned sets compare equal to plain
        sorted position lists.

        The whole level is packed at once.  With a position pool (numpy
        built or folded) one ``np.bincount`` of ``1 << (p & 7)`` at
        ``event * n_bytes + (p >> 3)`` fills an events x bytes table --
        an event's positions are distinct, so each cell sums distinct
        powers of two, which is their OR -- and each event's bits are
        one ``int.from_bytes`` of its row.  Otherwise each event's
        position list is packed on its own (the pure-Python twin).
        Either way every set keeps the ascending positions it was packed
        from, so its ``positions()`` never re-derives them from the bits.
        """
        cached = self._support_cache
        if cached is None:
            pool = self._position_pool
            np = get_numpy()
            if pool is not None and np is not None:
                cached = _pack_pool(np, pool)
            else:
                cached = {
                    event: SupportSet.from_sorted(granules)
                    for event, granules in self._positions_by_event().items()
                }
            self._support_cache = cached
            self._event_positions = None
        return cached

    def _positions_by_event(self) -> dict[str, Sequence[int]]:
        """Each event's ascending support positions for the pure-Python
        twins, never from the bits of a support: the cached supports'
        positions, the primed lists, or else a scan of the rows."""
        if self._support_cache is not None:
            return {
                event: support.positions()
                for event, support in self._support_cache.items()
            }
        if self._event_positions is not None:
            return self._event_positions
        positions: dict[str, list[int]] = {}
        for row in self.rows:
            for event in row.events():
                positions.setdefault(event, []).append(row.position)
        return positions

    def near_support_sets(
        self, max_period: int, events: Sequence[str]
    ) -> dict[str, tuple[tuple[int, ...], ...]]:
        """The maximal near support sets (Def. 3.13) of each of ``events``.

        Each near set is a slice of the event's support positions
        (``event_support()[event].positions()``), cut wherever a step
        exceeds ``max_period``.  With a position pool the cuts of every
        event come from one ``np.diff`` over the pool, plus the event
        starts; otherwise each event's positions are split on their own
        (the pure-Python twin).
        """
        supports = self.event_support()
        pool = self._position_pool
        np = get_numpy()
        if pool is None or np is None:
            return {
                event: tuple(
                    tuple(near_set)
                    for near_set in iter_near_sets(supports[event].positions(), max_period)
                )
                for event in events
            }
        flat = pool.positions
        offsets = pool.offsets
        starts = np.ones(len(flat), dtype=bool)
        np.greater(np.diff(flat), max_period, out=starts[1:])
        starts[offsets[:-1]] = True
        cuts = np.flatnonzero(starts)
        first_cut = np.searchsorted(cuts, offsets).tolist()
        cuts = cuts.tolist()
        cuts.append(len(flat))
        index_of = {event: index for index, event in enumerate(pool.events)}
        near_sets: dict[str, tuple[tuple[int, ...], ...]] = {}
        for event in events:
            index = index_of[event]
            lo = offsets[index]
            positions = supports[event].positions()
            near_sets[event] = tuple(
                positions[cuts[cut] - lo : cuts[cut + 1] - lo]
                for cut in range(first_cut[index], first_cut[index + 1])
            )
        return near_sets

    def instance_columns(self, event: str) -> dict[int, InstanceColumn]:
        """The instance columns of ``event``: HLH1's GH entry for it.

        ``{granule position: InstanceColumn}``, keyed by exactly the
        event's support positions, ascending (``{}`` for an event that
        never occurs).  Cut from the numpy builder's run tables where
        this database has them, otherwise from the rows -- pure-Python,
        coarsened and streamed databases alike -- at the support
        positions only.  On a database whose rows are still deferred
        (pure-built or coarsened), the first call builds them.
        """
        table = None if self._run_tables is None else self._run_tables.get(event)
        if table is None:
            return {
                position: InstanceColumn.from_instances(
                    self.instances_at(position, event)
                )
                for position in self.event_support().get(event, ())
            }
        positions, starts, ends = (array.tolist() for array in table)
        columns: dict[int, InstanceColumn] = {}
        n_runs = len(positions)
        lo = 0
        while lo < n_runs:
            granule = positions[lo]
            hi = lo + 1
            while hi < n_runs and positions[hi] == granule:
                hi += 1
            columns[granule] = InstanceColumn(tuple(starts[lo:hi]), tuple(ends[lo:hi]))
            lo = hi
        return columns

    def events(self) -> list[str]:
        """All distinct event keys occurring anywhere in DSEQ."""
        return list(self.event_support())

    def instances_at(self, position: int, event: str) -> list[EventInstance]:
        """Instances of ``event`` in the granule at ``position``.

        Per event the returned list is chronologically ordered and its
        runs are disjoint (Def. 3.10 run grouping), which is the
        invariant the columnar instance index's start-sorted tables and
        the step-2.2 kernels build on (see
        :mod:`repro.core.instance_index`).
        """
        return self.sequence_at(position).instances_of(event)

    def unbuilt_rows(self) -> int:
        """How many rows are still deferred: all of them until something
        first reads a row, 0 after that and on databases assembled from
        a row list."""
        rows = self.rows
        return len(rows) if isinstance(rows, _LazyRows) and rows._rows is None else 0

    def total_instances(self) -> int:
        """Total number of event instances across all rows."""
        return sum(len(row) for row in self.rows)

    def describe_row(self, position: int) -> str:
        """Paper-style rendering of one Table IV row."""
        return self.sequence_at(position).describe()

    def append_row(self, sequence: TemporalSequence) -> None:
        """Append one granule row (streaming ingestion, Def. 3.10 online).

        ``sequence`` must be finalized and carry the next 1-based position.
        The support cache is dropped: batch callers re-scan lazily, while
        the streaming miner maintains its own incrementally extended
        supports.
        """
        if sequence.position != len(self.rows) + 1:
            raise TransformError(
                f"appended granule has position {sequence.position}; "
                f"expected {len(self.rows) + 1}"
            )
        self.rows.append(sequence)
        self._support_cache = None
        # The primed columnar state describes the pre-append rows only;
        # streaming appends invalidate it (the streaming miner keeps its
        # own incrementally extended supports and columns).
        self._event_positions = None
        self._position_pool = None
        self._run_tables = None

    def prefix(self, n_granules: int) -> "TemporalSequenceDatabase":
        """A view of the first ``n_granules`` rows (rows are shared).

        The streaming parity checks mine every stream prefix with the
        batch miner; this avoids rebuilding the prefix from DSYB.
        """
        if not 0 <= n_granules <= len(self.rows):
            raise TransformError(
                f"prefix length {n_granules} outside [0, {len(self.rows)}]"
            )
        return TemporalSequenceDatabase(
            rows=self.rows[:n_granules],
            ratio=self.ratio,
            source_names=list(self.source_names),
        )

    def coarsen(self, factor: int) -> "TemporalSequenceDatabase":
        """Derive the ``factor``-times coarser DSEQ from this one.

        Its :meth:`event_support` is this database's supports folded
        (exact for events: a coarse granule holds an event iff one of
        the fine granules it covers does): fine position ``p`` maps to
        ``(p - 1) // factor + 1``, repeats within an event and positions
        past the last complete coarse granule are dropped, and empty
        folds -- events occurring only in the dropped trailing block --
        are left out.  With a position pool the fold is one vectorised
        pass over it and the coarse database keeps the folded pool;
        otherwise each event's position list is folded on its own (the
        pure-Python twin).  No row is scanned and no bit is walked.
        Its rows are deferred: on first read, every
        ``factor`` adjacent fine rows merge into one coarse row whose
        instances are re-run-grouped at the boundaries (Def. 3.10: runs
        never span granule boundaries *of their own granularity*, so runs
        split by a fine boundary fuse back together at the coarse level).
        Both equal ``build_sequence_database(dsyb, self.ratio * factor)``'s
        -- without re-walking the symbol stream.  A trailing group of
        fewer than ``factor`` rows is dropped, mirroring the sequence
        mapping's complete-block rule.
        """
        if factor < 1:
            raise TransformError(f"coarsening factor must be >= 1, got {factor}")
        n_coarse = len(self.rows) // factor
        if n_coarse == 0:
            raise TransformError(
                f"coarsening factor {factor} exceeds the {len(self.rows)} rows"
            )
        pool = self._position_pool
        np = get_numpy()
        event_positions: dict[str, list[int]] | None = None
        if pool is not None and np is not None:
            pool = _fold_pool(np, pool, factor, n_coarse)
        else:
            pool = None
            event_positions = {}
            for event, positions in self._positions_by_event().items():
                folded = _fold_positions(positions, factor, n_coarse)
                if folded:
                    event_positions[event] = folded
        fine_rows = self.rows

        def build_rows() -> list[TemporalSequence]:
            series_memo: dict[str, str] = {}
            return [
                merge_sequences(
                    fine_rows[(position - 1) * factor : position * factor],
                    position,
                    series_memo,
                )
                for position in range(1, n_coarse + 1)
            ]

        return TemporalSequenceDatabase(
            rows=_LazyRows(n_coarse, build_rows),
            ratio=self.ratio * factor,
            source_names=list(self.source_names),
            _event_positions=event_positions,
            _position_pool=pool,
        )


def _fold_positions(positions: Sequence[int], factor: int, n_coarse: int) -> list[int]:
    """One event's ascending positions folded onto a ``factor``-times
    coarser scale of ``n_coarse`` granules (see
    :meth:`TemporalSequenceDatabase.coarsen`; the pure-Python twin of
    :func:`_fold_pool`)."""
    folded: list[int] = []
    last = 0
    for position in positions:
        coarse = (position - 1) // factor + 1
        if coarse > n_coarse:
            break
        if coarse != last:
            folded.append(coarse)
            last = coarse
    return folded


def _fold_pool(np, pool: _PositionPool, factor: int, n_coarse: int) -> _PositionPool:
    """Every event's positions folded at once (see
    :meth:`TemporalSequenceDatabase.coarsen`).

    A coarse position is kept unless it repeats the previous one within
    its event or lies past ``n_coarse``; each event's new bounds are one
    ``searchsorted`` of its old bounds into the kept indices, and events
    left with no position drop out of the pool.
    """
    coarse = (pool.positions - 1) // factor + 1
    keep = np.ones(len(coarse), dtype=bool)
    np.not_equal(coarse[1:], coarse[:-1], out=keep[1:])
    keep[pool.offsets[:-1]] = True
    keep &= coarse <= n_coarse
    kept = np.flatnonzero(keep)
    bounds = np.searchsorted(kept, pool.offsets).tolist()
    events: list[str] = []
    offsets: list[int] = []
    for index, event in enumerate(pool.events):
        if bounds[index] < bounds[index + 1]:
            events.append(event)
            offsets.append(bounds[index])
    offsets.append(len(kept))
    return _PositionPool(events, coarse[kept], offsets)


def _pack_pool(np, pool: _PositionPool) -> dict[str, SupportSet]:
    """Every event's support set, packed at once (see
    :meth:`TemporalSequenceDatabase.event_support`).

    The events x bytes table has one float64 cell per byte of the packed
    bitsets; each set's cached positions are a slice of one ``tolist()``,
    so they are Python ints.
    """
    flat = pool.positions
    offsets = pool.offsets
    n_events = len(pool.events)
    n_bytes = (int(flat.max()) >> 3) + 1
    rows = np.repeat(np.arange(n_events, dtype=np.int64), np.diff(offsets))
    table = np.bincount(
        rows * n_bytes + (flat >> 3),
        weights=np.left_shift(1, flat & 7),
        minlength=n_events * n_bytes,
    )
    data = table.astype(np.uint8).tobytes()
    positions = flat.tolist()
    from_bytes = int.from_bytes
    return {
        event: SupportSet.from_packed(
            from_bytes(data[index * n_bytes : (index + 1) * n_bytes], "little"),
            tuple(positions[offsets[index] : offsets[index + 1]]),
        )
        for index, event in enumerate(pool.events)
    }


def merge_sequences(
    rows: list[TemporalSequence],
    position: int,
    series_memo: dict[str, str] | None = None,
) -> TemporalSequence:
    """Merge adjacent fine granule rows into one coarse temporal sequence.

    Within each series the fine rows' instances tile their granules
    contiguously, so concatenating them per series and fusing the
    boundary runs that carry the same event (the last run of one fine
    granule and the first of the next are adjacent by construction)
    reproduces exactly the run grouping of Def. 3.10 at the coarse
    granularity.  Shared by :meth:`TemporalSequenceDatabase.coarsen` and
    the multigrain streaming service.

    ``series_memo`` caches the event-key -> series split across calls
    (the event vocabulary is tiny next to the instance count, so callers
    merging many rows pass one shared dict).
    """
    if series_memo is None:
        series_memo = {}
    per_series: dict[str, list[EventInstance]] = {}
    for row in rows:
        at_boundary: set[str] = set()
        for instance in row.instances:
            series = series_memo.get(instance.event)
            if series is None:
                series = series_memo[instance.event] = instance.event.rsplit(":", 1)[0]
            runs = per_series.setdefault(series, [])
            if series not in at_boundary:
                at_boundary.add(series)
                if (
                    runs
                    and runs[-1].event == instance.event
                    and runs[-1].end + 1 == instance.start
                ):
                    runs[-1] = EventInstance(
                        instance.event, runs[-1].start, instance.end
                    )
                    continue
            runs.append(instance)
    merged = TemporalSequence(position=position)
    for runs in per_series.values():
        merged.instances.extend(runs)
    return merged.finalize()


def _run_bounds_numpy(np, arr, total: int, ratio: int):
    """The 0-based ``(starts, ends)`` arrays of the Def. 3.10 runs of
    ``arr`` (``total`` symbols or codes): a run starts at index 0, at
    every symbol change and at every granule boundary (a multiple of
    ``ratio``), and ends just before the next run starts."""
    boundary = np.empty(total, dtype=bool)
    boundary[0] = True
    if ratio == 1:
        boundary[1:] = True
    else:
        np.not_equal(arr[1:], arr[:-1], out=boundary[1:])
        boundary[ratio::ratio] = True
    starts = np.flatnonzero(boundary)
    ends = np.empty(len(starts), dtype=np.int64)
    ends[:-1] = starts[1:]
    ends[:-1] -= 1
    ends[-1] = total - 1
    return starts, ends


def series_runs(symbols: Sequence[str], total: int, ratio: int, offset: int = 0):
    """Yield the ``(start0, end0)`` runs of ``symbols[offset:offset+total]``.

    Runs are maximal stretches of one symbol that never cross a granule
    boundary (local index a multiple of ``ratio``), i.e. exactly the
    Def. 3.10 run grouping of the whole stream at once.  Indices are
    local to the region (add ``offset`` back for global positions).  One
    ``np.flatnonzero`` over a boundary mask when numpy is enabled and the
    region is long enough; a single scalar sweep otherwise -- both emit
    identical runs (pinned by the parity suites).
    """
    np = get_numpy()
    if np is not None and total >= _NUMPY_MIN_SYMBOLS:
        starts, ends = _run_bounds_numpy(
            np, np.asarray(symbols[offset : offset + total]), total, ratio
        )
        yield from zip(starts.tolist(), ends.tolist())
        return
    # Pure sweep: runs never cross granule boundaries (Def. 3.10), so
    # each granule chunk can be run-grouped independently -- and
    # itertools.groupby iterates the chunk at C speed, leaving Python
    # work proportional to the number of runs, not symbols.
    for chunk_start in range(0, total, ratio):
        chunk = symbols[offset + chunk_start : offset + min(chunk_start + ratio, total)]
        position = chunk_start
        for _, group in groupby(chunk):
            length = len(list(group))
            yield position, position + length - 1
            position += length


def build_region_rows(
    buffers: dict[str, Sequence[str]],
    offset: int,
    n_granules: int,
    ratio: int,
    first_position: int,
) -> list[TemporalSequence]:
    """Columnar row construction for a region of a symbol stream.

    Builds the ``n_granules`` temporal sequences covering the instants
    ``offset .. offset + n_granules*ratio - 1`` of every series buffer
    (``offset`` must be a multiple of ``ratio``), with 1-based positions
    starting at ``first_position``.  The row builder of the streaming
    ingestion layer and of the pure-Python DSEQ builder's deferred rows:
    one run detection per series for the whole region.
    """
    total = n_granules * ratio
    row_instances: list[list[EventInstance]] = [[] for _ in range(n_granules)]
    for name, buffer in buffers.items():
        key_of: dict[str, str] = {}
        for start, end in series_runs(buffer, total, ratio, offset):
            symbol = buffer[offset + start]
            event = key_of.get(symbol)
            if event is None:
                event = key_of[symbol] = f"{name}:{symbol}"
            row_instances[start // ratio].append(
                EventInstance(event, offset + start + 1, offset + end + 1)
            )
    return [
        TemporalSequence(
            position=first_position + index, instances=instances
        ).finalize()
        for index, instances in enumerate(row_instances)
    ]


def _series_runs_numpy(np, symbolic, total, ratio):
    """Run bounds and global event codes of one series, as arrays.

    Returns ``(starts0, ends0, run_codes, event_names)`` where
    ``run_codes`` indexes ``event_names`` (the series' possible events).
    A series carrying mapper-attached integer ``codes`` never
    round-trips through a unicode array at all.
    """
    codes = symbolic.codes
    if codes is not None:
        arr = codes[:total]
        symbols = symbolic.alphabet.symbols
    else:
        arr = np.asarray(symbolic.symbols[:total])
        uniques, inverse = np.unique(arr, return_inverse=True)
        symbols = uniques.tolist()
        arr = inverse
    starts, ends = _run_bounds_numpy(np, arr, total, ratio)
    name = symbolic.name
    event_names = [f"{name}:{symbol}" for symbol in symbols]
    return starts, ends, arr[starts], event_names


def _build_columnar_numpy(
    np, dsyb: SymbolicDatabase, ratio: int, n_granules: int, total: int
) -> TemporalSequenceDatabase:
    """Vectorized columnar DSEQ construction (see ``_build_columnar``).

    All series' runs are pooled into flat arrays and grouped by event
    with one stable sort of their event codes.  Each series' runs enter
    the pool start-ascending and each event belongs to one series, so
    every group is its event's runs in start order: the event's run
    table is three slices of the grouped arrays, and its support
    positions are the group's granules with repeats dropped (one
    vectorized dedupe for all events, kept as the database's
    :class:`_PositionPool`).  No ``EventInstance`` objects
    are created here at all: the rows are a :class:`_LazyRows` thunk
    that does the row-only work -- the canonical ``(start, -end,
    event)`` lexsort and the row cuts -- only when something reads a
    row, so a support-only mining pass stays entirely in machine arrays.
    """
    start_parts = []
    end_parts = []
    code_parts = []
    event_names: list[str] = []
    for symbolic in dsyb:
        starts, ends, run_codes, names = _series_runs_numpy(
            np, symbolic, total, ratio
        )
        start_parts.append(starts)
        end_parts.append(ends)
        code_parts.append(run_codes + len(event_names))
        event_names.extend(names)
    run_codes = np.concatenate(code_parts)
    n_pool = len(run_codes)
    n_events = len(event_names)
    by_event = np.argsort(run_codes, kind="stable")
    counts = np.bincount(run_codes, minlength=n_events)
    offsets = np.zeros(n_events + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    starts1 = np.concatenate(start_parts)[by_event]
    granules1 = starts1 // ratio + 1
    starts1 += 1
    ends1 = np.concatenate(end_parts)[by_event]
    ends1 += 1
    # A run adds a support position unless it repeats the previous
    # run's granule within the same event.
    new_position = np.empty(n_pool, dtype=bool)
    new_position[0] = True
    np.not_equal(granules1[1:], granules1[:-1], out=new_position[1:])
    new_position[offsets[:-1][counts > 0]] = True
    kept = np.flatnonzero(new_position)
    position_offsets = np.searchsorted(kept, offsets).tolist()
    offsets = offsets.tolist()

    tables: dict[str, tuple] = {}
    pool_offsets: list[int] = []
    for code, event in enumerate(event_names):
        lo, hi = offsets[code], offsets[code + 1]
        if lo == hi:  # alphabet symbol never emitted
            continue
        tables[event] = (granules1[lo:hi], starts1[lo:hi], ends1[lo:hi])
        pool_offsets.append(position_offsets[code])
    pool_offsets.append(len(kept))

    def build_rows() -> list[TemporalSequence]:
        # Canonical order (start, -end, event): rank events by name so
        # the string tiebreak is an integer sort.  The key is total (one
        # event has at most one run per start), so the order is exactly
        # what ``TemporalSequence.finalize`` would produce, and rows are
        # contiguous slices of the sorted pool (granules are
        # non-decreasing when starts are sorted), already in that order.
        name_order = sorted(range(n_events), key=event_names.__getitem__)
        ranks = np.empty(n_events, dtype=np.int64)
        ranks[name_order] = np.arange(n_events)
        run_ranks = np.repeat(ranks, counts)
        order = np.lexsort((run_ranks, -ends1, starts1))
        bounds = np.searchsorted(
            granules1[order], np.arange(2, n_granules + 1)
        ).tolist()
        bounds.append(n_pool)
        names_by_rank = np.array(
            [event_names[code] for code in name_order], dtype=object
        )
        instances = [
            EventInstance(event, start, end)
            for event, start, end in zip(
                names_by_rank[run_ranks[order]].tolist(),
                starts1[order].tolist(),
                ends1[order].tolist(),
            )
        ]
        rows: list[TemporalSequence] = []
        lo = 0
        for index, hi in enumerate(bounds):
            row = TemporalSequence(position=index + 1, instances=instances[lo:hi])
            by_event: dict[str, list[EventInstance]] = {}
            for instance in row.instances:
                by_event.setdefault(instance.event, []).append(instance)
            row._by_event = by_event
            rows.append(row)
            lo = hi
        return rows

    if metrics.metrics_enabled():
        metrics.inc("frontend.columnar.runs", n_pool)
        metrics.inc("frontend.columnar.events", len(tables))
    return TemporalSequenceDatabase(
        rows=_LazyRows(n_granules, build_rows),
        ratio=ratio,
        source_names=dsyb.names,
        # int32 halves the pool the database keeps: a position is a
        # granule index, and the one product that can outgrow it, the
        # bincount key of ``_pack_pool``, is int64.
        _position_pool=_PositionPool(
            list(tables), granules1[kept].astype(np.int32), pool_offsets
        ),
        _run_tables=tables,
    )


def _columnar_positions_pure(name, symbols, total, ratio, event_positions) -> int:
    """Pure-twin support scan over one series (see ``_build_columnar``).

    One :func:`itertools.groupby` over the whole stream finds the natural
    symbol runs at C speed; a run covering granules ``g0..g1`` then
    contributes its support positions with one ``extend(range(...))``
    (plus a duplicate guard for a second run of the same event inside
    one granule), so the Python work is per natural run -- no instance
    objects, no per-granule iteration.  Returns the number of
    boundary-split runs (Def. 3.10) the deferred row pass will emit.
    """
    key_of: dict[str, str] = {}
    n_runs = 0
    position = 0
    for symbol, group in groupby(symbols[:total]):
        stop = position + len(list(group))
        event = key_of.get(symbol)
        if event is None:
            event = key_of[symbol] = f"{name}:{symbol}"
            positions = event_positions[event] = []
        else:
            positions = event_positions[event]
        first = position // ratio
        last = (stop - 1) // ratio
        n_runs += last - first + 1
        if positions and positions[-1] == first + 1:
            first += 1
        positions.extend(range(first + 1, last + 2))
        position = stop
    return n_runs


def _build_columnar(
    dsyb: SymbolicDatabase, ratio: int, n_granules: int
) -> TemporalSequenceDatabase:
    """One-pass columnar DSEQ construction (see the module docstring).

    Every run of every series feeds the per-event support positions
    (priming ``event_support``), in one sweep per series; the rows are
    built on first access.  On the numpy backend each run additionally
    lands in the event's flat run table -- granule positions and
    start/end bounds, run-aligned and non-decreasing by position (one
    event belongs to one series scanned left to right) -- from which
    :meth:`~TemporalSequenceDatabase.instance_columns` cuts the event's
    columns.  The pure twin skips the run tables (the per-run
    bookkeeping would outweigh what the cuts save), and its columns are
    cut from the rows.
    """
    total = n_granules * ratio
    np = get_numpy()
    if np is not None and total >= _NUMPY_MIN_SYMBOLS:
        return _build_columnar_numpy(np, dsyb, ratio, n_granules, total)
    event_positions: dict[str, list[int]] = {}
    n_runs = 0
    series_list = list(dsyb)
    for symbolic in series_list:
        n_runs += _columnar_positions_pure(
            symbolic.name, symbolic.symbols, total, ratio, event_positions
        )
    if metrics.metrics_enabled():
        metrics.inc("frontend.columnar.runs", n_runs)
        metrics.inc("frontend.columnar.events", len(event_positions))
    return TemporalSequenceDatabase(
        rows=_LazyRows(
            n_granules,
            lambda: build_region_rows(
                {symbolic.name: symbolic.symbols for symbolic in series_list},
                0,
                n_granules,
                ratio,
                1,
            ),
        ),
        ratio=ratio,
        source_names=dsyb.names,
        _event_positions=event_positions,
    )


def build_sequence_database(dsyb: SymbolicDatabase, ratio: int) -> TemporalSequenceDatabase:
    """Apply the sequence mapping ``g: XS ->m H`` to every series of DSYB.

    Parameters
    ----------
    dsyb:
        The symbolic database at the fine granularity G.
    ratio:
        The m of the mapping (how many fine granules form one coarse
        granule).  A trailing block of fewer than ``ratio`` symbols is
        dropped, consistent with Def. 3.3's complete-partition requirement.

    The build is columnar (see the module docstring): one pass per series
    primes the per-event supports (and, on the numpy builder, the run
    tables the instance columns are cut from); the rows are built when
    first read.
    """
    if ratio < 1:
        raise TransformError(f"sequence mapping ratio must be >= 1, got {ratio}")
    if len(dsyb) == 0:
        raise TransformError("cannot build DSEQ from an empty DSYB")
    n_granules = dsyb.n_instants // ratio
    if n_granules == 0:
        raise TransformError(
            f"ratio {ratio} exceeds the {dsyb.n_instants} instants of DSYB"
        )
    with span("transform/build_dseq", ratio=ratio, granules=n_granules):
        return _build_columnar(dsyb, ratio, n_granules)
