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
feeds the granule row, the per-event support positions, and the per
``(event, granule)`` :class:`~repro.core.instance_index.InstanceColumn`
simultaneously -- so step 2.1 never re-scans the rows.
"""

from __future__ import annotations

import threading
from array import array
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, Sequence

from repro.core.config import get_numpy
from repro.core.instance_index import InstanceColumn
from repro.core.supportset import SupportSet, make_support_set
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


class _LazyRows:
    """Granule rows materialized on first element access.

    The columnar builders derive everything mining needs -- per-event
    support positions and flat run tables -- before a single
    :class:`TemporalSequence` exists, and a step-2.1-only run (primed
    supports, ``max_pattern_length == 1``) never reads the rows at all.
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
    _support_cache: dict[str, SupportSet] | None = field(
        default=None, repr=False, compare=False
    )
    #: Per-event ascending support positions, primed by the columnar
    #: front end (``None`` on databases assembled from rows -- supports
    #: are then recomputed by scanning the rows).
    _event_positions: dict[str, list[int]] | None = field(
        default=None, repr=False, compare=False
    )
    #: Per-event flat run tables primed by the columnar front end:
    #: ``event -> (granule positions per run, starts, ends, instances)``
    #: with every sequence run-aligned and non-decreasing by position.
    #: :class:`InstanceColumn` objects are materialized from these lazily
    #: (and cached in ``_prebuilt_columns``) -- only the events step 2.1
    #: actually asks for pay the per-granule column construction.
    _prebuilt_raw: dict[str, tuple] | None = field(
        default=None, repr=False, compare=False
    )
    _prebuilt_columns: dict[str, dict[int, InstanceColumn]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def __getstate__(self):
        """Exclude materialized instance columns from the pickled state.

        The primed tables (``_support_cache``, ``_event_positions``,
        ``_prebuilt_raw``) ARE kept on purpose, so an unpickled copy
        skips the row scans.  ``_prebuilt_columns`` is the per-process
        lazy materialization of those tables (mirror of
        ``HLH1._columns``): a copy rebuilds exactly the columns it
        touches.
        """
        state = dict(self.__dict__)
        state["_prebuilt_columns"] = {}
        return state

    def __setstate__(self, state) -> None:
        self.__dict__.update(state)

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
        single scan of DSEQ (as Alg. 1 step 2.1 requires) and cached.  The
        returned sets compare equal to plain sorted position lists.
        """
        cached = self._support_cache
        if cached is None:
            positions: dict[str, list[int]] | dict[str, Sequence[int]]
            if self._event_positions is not None:
                positions = self._event_positions
            else:
                positions = {}
                for row in self.rows:
                    for event in row.events():
                        positions.setdefault(event, []).append(row.position)
            cached = {
                event: make_support_set(granules)
                for event, granules in positions.items()
            }
            self._support_cache = cached
        return cached

    def prebuilt_columns(self, event: str) -> dict[int, InstanceColumn] | None:
        """The columnar front end's prebuilt instance columns of ``event``.

        ``{granule position: InstanceColumn}`` when this database was
        built by the columnar front end (``None`` otherwise, and the
        miner falls back to :meth:`instances_at` row walks).  The dict's
        keys are exactly the event's support positions, ascending.
        Columns are materialized from the primed flat run tables on
        first request per event, then cached -- events that never reach
        step 2.1's instance installation never pay for them.
        """
        if self._prebuilt_raw is None:
            return None
        cached = self._prebuilt_columns.get(event)
        if cached is not None:
            return cached
        raw = self._prebuilt_raw.get(event)
        if raw is None:
            return None
        positions, starts, ends, instances = raw
        if hasattr(positions, "tolist"):  # numpy-built tables
            positions = positions.tolist()
            starts = starts.tolist()
            ends = ends.tolist()
        if instances is None:
            # The numpy builder defers instance objects entirely: only
            # the events step 2.1 actually installs pay for them.
            instances = [
                EventInstance(event, start, end)
                for start, end in zip(starts, ends)
            ]
        columns: dict[int, InstanceColumn] = {}
        n_runs = len(positions)
        lo = 0
        while lo < n_runs:
            granule = positions[lo]
            hi = lo + 1
            while hi < n_runs and positions[hi] == granule:
                hi += 1
            columns[granule] = InstanceColumn(
                array("q", starts[lo:hi]),
                array("q", ends[lo:hi]),
                tuple(instances[lo:hi]),
            )
            lo = hi
        self._prebuilt_columns[event] = columns
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
        self._prebuilt_raw = None
        self._prebuilt_columns.clear()

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

    def prime_event_support(self, supports: dict[str, SupportSet]) -> None:
        """Install precomputed per-event supports.

        The hierarchical miner derives a coarse level's event supports by
        folding the finer level's (:meth:`SupportSet.coarsen`) instead of
        re-scanning the rows; priming the cache makes
        :meth:`event_support` serve the folded sets directly.  The caller
        guarantees the supports equal what a scan would compute -- for
        event supports the fold is exact (see
        :meth:`repro.core.supportset.SupportSet.coarsen`).
        """
        self._support_cache = dict(supports)

    def coarsen(
        self, factor: int, granules: Iterable[int] | None = None
    ) -> "TemporalSequenceDatabase":
        """Derive the ``factor``-times coarser DSEQ from this one.

        Every ``factor`` adjacent rows merge into one coarse row whose
        instances are re-run-grouped at the boundaries (Def. 3.10: runs
        never span granule boundaries *of their own granularity*, so runs
        split by a fine boundary fuse back together at the coarse level).
        The result's rows equal ``build_sequence_database(dsyb,
        self.ratio * factor)`` -- without re-walking the symbol stream.
        A trailing group of fewer than ``factor`` rows is dropped,
        mirroring the sequence mapping's complete-block rule.

        ``granules``, if given, lists the 1-based coarse positions whose
        rows are actually needed (the union of the candidate events'
        folded supports); other positions get an
        :class:`UnmaterializedSequence` placeholder that raises on access,
        so cross-level screening can skip the merge work for granules no
        candidate event touches without any risk of silently serving
        empty rows.
        """
        if factor < 1:
            raise TransformError(f"coarsening factor must be >= 1, got {factor}")
        n_coarse = len(self.rows) // factor
        if n_coarse == 0:
            raise TransformError(
                f"coarsening factor {factor} exceeds the {len(self.rows)} rows"
            )
        materialize = None if granules is None else set(granules)
        series_memo: dict[str, str] = {}
        rows: list[TemporalSequence] = []
        for position in range(1, n_coarse + 1):
            if materialize is not None and position not in materialize:
                rows.append(UnmaterializedSequence(position=position))
            else:
                rows.append(
                    merge_sequences(
                        self.rows[(position - 1) * factor : position * factor],
                        position,
                        series_memo,
                    )
                )
        return TemporalSequenceDatabase(
            rows=rows,
            ratio=self.ratio * factor,
            source_names=list(self.source_names),
        )


class UnmaterializedSequence(TemporalSequence):
    """Placeholder row for a coarse granule the screening proved irrelevant.

    Cross-level screening materializes only the granules some candidate
    event supports; every other position gets this sentinel.  Any attempt
    to read it is a bug in the screening soundness argument, so it raises
    loudly instead of serving an empty sequence.
    """

    def _unavailable(self) -> TransformError:
        return TransformError(
            f"granule {self.position} was screened out of this derived DSEQ "
            "and never materialized; re-derive with coarsen(factor) for full rows"
        )

    def events(self) -> list[str]:
        raise self._unavailable()

    def instances_of(self, event: str) -> list[EventInstance]:
        raise self._unavailable()

    def __contains__(self, event: str) -> bool:
        raise self._unavailable()

    def __len__(self) -> int:
        raise self._unavailable()

    def describe(self) -> str:
        raise self._unavailable()


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
        arr = np.asarray(symbols[offset : offset + total])
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
    starting at ``first_position``.  The streaming ingestion layer's
    row builder: one run detection per series for the whole region.
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
    name = symbolic.name
    event_names = [f"{name}:{symbol}" for symbol in symbols]
    return starts, ends, arr[starts], event_names


def _build_columnar_numpy(
    np, dsyb: SymbolicDatabase, ratio: int, n_granules: int, total: int
) -> TemporalSequenceDatabase:
    """Vectorized columnar DSEQ construction (see ``_build_columnar``).

    All series' runs are pooled into flat arrays and lexsorted once by
    the canonical instance order ``(start, -end, event)``.  Because the
    pool is globally sorted, granule rows are plain slices (no per-run
    distribution loop) that arrive pre-sorted -- finalize's per-instance
    sort is skipped entirely -- and each event's runs, selected from the
    same sorted pool, are start-ascending as the lazy
    :class:`InstanceColumn` cuts require.  No ``EventInstance`` objects
    are created here at all: the run tables defer them to the per-event
    column cuts and the rows themselves are a :class:`_LazyRows` thunk,
    so a support-only mining pass stays entirely in machine arrays.
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
    starts = np.concatenate(start_parts)
    ends = np.concatenate(end_parts)
    run_codes = np.concatenate(code_parts)
    n_pool = len(starts)
    # Canonical order (start, -end, event): rank events by name so the
    # string tiebreak is an integer sort.  The key is total (one event
    # has at most one run per start), so the order is exactly what
    # ``TemporalSequence.finalize`` would produce.
    name_order = sorted(range(len(event_names)), key=event_names.__getitem__)
    ranks = np.empty(len(event_names), dtype=np.int64)
    ranks[name_order] = np.arange(len(event_names))
    order = np.lexsort((ranks[run_codes], -ends, starts))
    starts = starts[order]
    ends = ends[order]
    run_codes = run_codes[order]
    # Rows are contiguous slices of the sorted pool (granule = start //
    # ratio is non-decreasing when starts are sorted), already in
    # finalize order.
    granules = starts // ratio
    bounds = np.searchsorted(granules, np.arange(1, n_granules)).tolist()
    bounds.append(n_pool)
    lookup = np.array(event_names, dtype=object)

    def build_rows() -> list[TemporalSequence]:
        instances = [
            EventInstance(event, start, end)
            for event, start, end in zip(
                lookup[run_codes].tolist(),
                (starts + 1).tolist(),
                (ends + 1).tolist(),
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

    tables: dict[str, tuple] = {}
    event_positions: dict[str, list[int]] = {}
    granules1 = granules + 1
    starts1 = starts + 1
    ends1 = ends + 1
    for code, event in enumerate(event_names):
        indices = np.flatnonzero(run_codes == code)
        if len(indices) == 0:  # alphabet symbol never emitted
            continue
        positions = granules1[indices]
        tables[event] = (positions, starts1[indices], ends1[indices], None)
        event_positions[event] = sorted(set(positions.tolist()))
    if metrics.metrics_enabled():
        metrics.inc("frontend.columnar.runs", n_pool)
        metrics.inc("frontend.columnar.events", len(tables))
    return TemporalSequenceDatabase(
        rows=_LazyRows(n_granules, build_rows),
        ratio=ratio,
        source_names=dsyb.names,
        _event_positions=event_positions,
        _prebuilt_raw=tables,
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


def _columnar_rows_pure(
    series_list, total, ratio, n_granules
) -> list[TemporalSequence]:
    """Deferred pure-twin row materialization (see ``_build_columnar``).

    Replays the whole-stream run grouping of every series, this time
    emitting the boundary-split :class:`EventInstance` objects into
    their granule rows.  Runs only when something actually indexes or
    iterates the rows -- a support-only mining pass never does.
    """
    row_instances: list[list[EventInstance]] = [[] for _ in range(n_granules)]
    for symbolic in series_list:
        name = symbolic.name
        key_of: dict[str, str] = {}
        position = 0
        for symbol, group in groupby(symbolic.symbols[:total]):
            stop = position + len(list(group))
            event = key_of.get(symbol)
            if event is None:
                event = key_of[symbol] = f"{name}:{symbol}"
            while position < stop:
                granule_index = position // ratio
                boundary = min(stop, granule_index * ratio + ratio)
                row_instances[granule_index].append(
                    EventInstance(event, position + 1, boundary)
                )
                position = boundary
    return [
        TemporalSequence(position=index + 1, instances=instances).finalize()
        for index, instances in enumerate(row_instances)
    ]


def _build_columnar(
    dsyb: SymbolicDatabase, ratio: int, n_granules: int
) -> TemporalSequenceDatabase:
    """One-pass columnar DSEQ construction (see the module docstring).

    Every run of every series feeds the granule row and the per-event
    support positions (priming ``event_support``), in one sweep per
    series.  On the numpy backend each run additionally lands in the
    event's flat run table -- granule positions, start/end bounds, and
    instances, run-aligned and non-decreasing by position (one event
    belongs to one series scanned left to right) -- from which
    per-granule :class:`InstanceColumn` objects are cut lazily on
    step 2.1's first request per event.  The pure twin skips the run
    tables (the per-run bookkeeping would outweigh what the lazy cuts
    save) and step 2.1 falls back to row walks for instances.
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
            lambda: _columnar_rows_pure(series_list, total, ratio, n_granules),
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
    primes the per-event supports and instance columns along with the
    rows.
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
