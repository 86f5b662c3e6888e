"""Columnar instance index for the step-2.2 pattern-growth hot path.

The step-2.2 kernels (pair enumeration and group extension, Sec. IV-D)
used to relate :class:`~repro.events.event.EventInstance` objects pair by
pair: one ``relation_of_pair`` call, two ``sort_key()`` tuples, and a
fresh ``TemporalPattern`` per accepted pair.  On dense granules that is
almost pure interpreter overhead -- the arithmetic behind a relation
check is four integer comparisons.

This module provides the columnar substitute:

* :class:`InstanceColumn` -- the per ``(event, granule)`` instance table:
  parallel ``starts`` / ``ends`` position tuples sorted chronologically
  (by ``(start, -end)``), plus the instance objects themselves for
  decoding.  Built once per mining job per process and cached on
  :class:`~repro.core.hlh.HLH1` (see :meth:`HLH1.column_of`); the cache
  is never pickled -- an unpickled ``HLH1`` rebuilds its columns lazily
  from its ``GH`` tables.
* **Flyweight interning** for :class:`~repro.core.pattern.Triple` and
  :class:`~repro.core.pattern.TemporalPattern`: the kernels produce one
  object per *distinct* pattern per process instead of one per accepted
  instance pair, killing the ``__post_init__`` validation churn and
  making pattern hashing hit identical objects.
* **Compact assignment encoding**: inside the mining kernels a realizing
  assignment is a tuple of *column indices* parallel to the pattern's
  chronologically ordered ``events`` -- ``encoded[i]`` indexes the
  instance of ``pattern.events[i]`` in its granule column.  Index tuples
  are what ``GH_k`` stores and what the pickled
  :class:`~repro.core.stpm.GroupOutcome` payloads of a job checkpoint
  hold; :func:`decode_assignment` rematerializes the instance tuple
  wherever a human-facing view needs one.

The kernels themselves live in :mod:`repro.core.array_kernel`
(:func:`~repro.core.array_kernel.array_collect_pair_patterns` /
:func:`~repro.core.array_kernel.array_extend_group_patterns`), which the
batch and streaming miners share.
"""

from __future__ import annotations

from array import array
from itertools import repeat
from typing import Iterable, Sequence

from repro.core.pattern import TemporalPattern, Triple
from repro.events.event import EventInstance
from repro.exceptions import MiningError

#: A realizing assignment encoded as column indices parallel to the
#: pattern's chronological ``events`` tuple.
EncodedAssignment = tuple[int, ...]


def _sort_key(instance: EventInstance) -> tuple[int, int]:
    """Chronological column order: by start, longer-first on ties.

    Within one column every instance carries the same event key, so the
    event tiebreaker of :meth:`EventInstance.sort_key` is irrelevant.
    """
    return (instance.start, -instance.end)


class InstanceColumn:
    """Start-sorted compact instance table of one ``(event, granule)``.

    ``starts_arr`` and ``ends_arr`` are parallel ``array('q')`` buffers of
    inclusive fine-granule bounds in chronological order -- compact
    machine-word storage, built once per column.  ``instances`` holds the
    corresponding :class:`EventInstance` objects for decoding.  The
    ``starts`` / ``ends`` *tuples* are lazy views, materialized at most
    once per column, that the kernels' inner loops and ``bisect`` calls
    index.

    Instances of one event inside one granule are disjoint runs, so both
    columns are strictly ascending -- the monotonicity the kernels'
    two-pointer walks and bulk-Follows boundaries rely on.
    """

    __slots__ = ("starts_arr", "ends_arr", "instances", "_starts", "_ends")

    def __init__(
        self,
        starts: Iterable[int],
        ends: Iterable[int],
        instances: tuple[EventInstance, ...],
    ):
        self.starts_arr = starts if isinstance(starts, array) else array("q", starts)
        self.ends_arr = ends if isinstance(ends, array) else array("q", ends)
        self.instances = instances
        self._starts: tuple[int, ...] | None = None
        self._ends: tuple[int, ...] | None = None

    @property
    def starts(self) -> tuple[int, ...]:
        """The start bounds as a tuple (lazy view over ``starts_arr``)."""
        if self._starts is None:
            self._starts = tuple(self.starts_arr)
        return self._starts

    @property
    def ends(self) -> tuple[int, ...]:
        """The end bounds as a tuple (lazy view over ``ends_arr``)."""
        if self._ends is None:
            self._ends = tuple(self.ends_arr)
        return self._ends

    @classmethod
    def from_instances(cls, instances: Sequence[EventInstance]) -> "InstanceColumn":
        """Build the column, re-sorting defensively if the input is not
        already in chronological order (the sequence layer emits sorted
        runs; hand-built HLH structures may not).

        After sorting, the ends column must be non-decreasing -- i.e. no
        instance may *nest* inside another.  The run grouping of
        Def. 3.10 guarantees this (same-event instances in a granule are
        disjoint), and the kernels' bulk-Follows bounds are only sound
        under it, so a hand-built structure that violates it is
        rejected loudly -- naming the offending instance -- instead of
        silently misclassifying relations.
        """
        ordered = tuple(instances)
        if any(
            _sort_key(a) > _sort_key(b) for a, b in zip(ordered, ordered[1:])
        ):
            ordered = tuple(sorted(ordered, key=_sort_key))
        ends = array("q", (instance.end for instance in ordered))
        for index in range(1, len(ends)):
            if ends[index - 1] > ends[index]:
                raise MiningError(
                    f"instance column holds nested instances: instance "
                    f"#{index} {ordered[index]!r} nests inside "
                    f"#{index - 1} {ordered[index - 1]!r} (ends not "
                    "monotone); per-event granule instances must be "
                    "disjoint runs (Def. 3.10)"
                )
        return cls(
            array("q", (instance.start for instance in ordered)),
            ends,
            ordered,
        )

    def __len__(self) -> int:
        return len(self.starts_arr)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InstanceColumn({list(zip(self.starts_arr, self.ends_arr))!r})"


#: The shared empty column (events missing from a granule).
EMPTY_COLUMN = InstanceColumn((), (), ())


# ---------------------------------------------------------------------------
# Lazy assignment sequences (implicit bulk-Follows blocks)
# ---------------------------------------------------------------------------

#: Block kinds of :class:`LazyAssignments`.  ``PAIRS`` is a materialized
#: run of encoded pairs; ``BLOCK_BA`` holds per-``i`` head boundaries
#: (``(j, i)`` for every ``j < heads[i]`` -- the bulk "b wholly before a"
#: Follows zone); ``BLOCK_AB`` holds per-``i`` tail boundaries against a
#: column of length ``n`` (``(i, j)`` for every ``tails[i] <= j < n``).
_BLOCK_PAIRS = 0
_BLOCK_BA = 1
_BLOCK_AB = 2


class LazyAssignments:
    """Encoded pair assignments with implicit bulk-Follows zones.

    The step-2.2 pair kernel emits two kinds of accepted pairs: a *near
    window* that had to be classified pair by pair, and *bulk zones*
    where every pair is an unconditional Follows.  On dense granules the
    bulk zones are almost the whole instance product, and eagerly
    expanding them into ``(i, j)`` tuples is the dominant cost of pair
    enumeration -- interpreter-built tuples nobody may ever read (the
    ``GH_2`` rows of a non-candidate pattern, or any run capped at
    ``max_pattern_length = 2``).

    This sequence keeps the bulk zones *implicit*: a zone is stored as
    its per-instance boundary list (``O(n)`` integers for ``O(n^2)``
    pairs) and only expanded -- once, cached -- when somebody actually
    iterates the assignments (group extension, decoding, reporting,
    parity tests).  It quacks like a ``list[tuple[int, int]]``:
    iteration, ``len``, indexing, equality, and pickling all see the
    expanded pairs; pickling stores the compact
    blocks when the sequence was never expanded, so a job checkpoint
    records dense ``GH_2`` tables without serializing the product
    either.
    """

    __slots__ = ("_blocks", "_items", "_length")

    def __init__(self) -> None:
        self._blocks: list | None = []
        self._items: list | None = None
        self._length = 0

    # -- kernel-side producers ------------------------------------------

    def append(self, pair) -> None:
        """Append one classified near-window pair."""
        if self._items is not None:
            self._items.append(pair)
        else:
            blocks = self._blocks
            if blocks and blocks[-1][0] == _BLOCK_PAIRS:
                blocks[-1][1].append(pair)
            else:
                blocks.append((_BLOCK_PAIRS, [pair]))
        self._length += 1

    def extend(self, pairs) -> None:
        """Append a run of classified near-window pairs."""
        if self._items is not None:
            before = len(self._items)
            self._items.extend(pairs)
            self._length += len(self._items) - before
            return
        blocks = self._blocks
        if blocks and blocks[-1][0] == _BLOCK_PAIRS:
            run = blocks[-1][1]
        else:
            run = []
            blocks.append((_BLOCK_PAIRS, run))
        before = len(run)
        run.extend(pairs)
        self._length += len(run) - before

    def add_bulk_before(self, heads, count: int) -> None:
        """Record the bulk ``(j, i) for j < heads[i]`` Follows zone."""
        if count <= 0:
            return
        if self._items is not None:
            items = self._items
            for i, head in enumerate(heads):
                if head:
                    items.extend(zip(range(head), repeat(i)))
        else:
            self._blocks.append((_BLOCK_BA, heads))
        self._length += count

    def add_bulk_after(self, tails, n: int, count: int) -> None:
        """Record the bulk ``(i, j) for tails[i] <= j < n`` Follows zone."""
        if count <= 0:
            return
        if self._items is not None:
            items = self._items
            for i, tail in enumerate(tails):
                if tail < n:
                    items.extend(zip(repeat(i), range(tail, n)))
        else:
            self._blocks.append((_BLOCK_AB, tails, n))
        self._length += count

    # -- consumer-side sequence protocol --------------------------------

    def _materialize(self) -> list:
        """Expand the blocks into the pair list, once.

        Threads that share one level's buckets may race here.  Each racer expands the same blocks into an equal list; a
        racer that finds the blocks already dropped returns the list the
        winner stored first.
        """
        blocks = self._blocks
        if blocks is None:
            return self._items
        items: list = []
        for block in blocks:
            kind = block[0]
            if kind == _BLOCK_PAIRS:
                items.extend(block[1])
            elif kind == _BLOCK_BA:
                for i, head in enumerate(block[1]):
                    if head:
                        items.extend(zip(range(head), repeat(i)))
            else:
                n = block[2]
                for i, tail in enumerate(block[1]):
                    if tail < n:
                        items.extend(zip(repeat(i), range(tail, n)))
        self._items = items
        self._blocks = None
        return items

    def __iter__(self):
        items = self._items
        if items is None:
            items = self._materialize()
        return iter(items)

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        items = self._items
        if items is None:
            items = self._materialize()
        return items[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, LazyAssignments):
            if self._length != other._length:
                return False
            other = list(other)
        elif isinstance(other, (list, tuple)):
            other = list(other)
        else:
            return NotImplemented
        items = self._items
        if items is None:
            items = self._materialize()
        return items == other

    __hash__ = None  # mutable sequence, like list

    def sort(self, **kwargs) -> None:
        items = self._items
        if items is None:
            items = self._materialize()
        items.sort(**kwargs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._items is None:
            return f"LazyAssignments(<{self._length} pairs, unexpanded>)"
        return f"LazyAssignments({self._items!r})"

    def __reduce__(self):
        # Store compact blocks while unexpanded (job checkpoints record
        # dense GH2 tables without serializing the instance product);
        # an expanded sequence pickles its plain item list.
        if self._items is None:
            return (_rebuild_lazy_assignments, (self._blocks, None, self._length))
        return (_rebuild_lazy_assignments, (None, self._items, self._length))


def _rebuild_lazy_assignments(blocks, items, length) -> LazyAssignments:
    """Pickle reconstructor of :class:`LazyAssignments`."""
    rebuilt = LazyAssignments()
    rebuilt._blocks = blocks
    rebuilt._items = items
    rebuilt._length = length
    return rebuilt


# ---------------------------------------------------------------------------
# Flyweight interning of triples and patterns
# ---------------------------------------------------------------------------

#: Process-wide flyweight caches.  Patterns and triples are immutable
#: value objects compared by value everywhere, so the interning is a
#: best-effort optimization: sharing across jobs is safe, and losing an
#: entry merely re-constructs an equal object.  Batch jobs drop the
#: caches when their miner's ``mine()`` returns (a live job's interned
#: objects are all referenced by its HLH structures anyway); for paths with no job
#: scope -- the long-lived streaming miner -- :data:`_INTERN_CACHE_LIMIT`
#: hard-bounds each cache, resetting it when the distinct-identity
#: population outgrows the limit.  Concurrent misses from threads of one
#: process race benignly: both threads build equal objects and the last
#: insert wins.
_TRIPLE_CACHE: dict[tuple[str, str, str], Triple] = {}
_PATTERN_CACHE: dict[tuple[tuple[str, ...], tuple[Triple, ...]], TemporalPattern] = {}

#: Distinct identities a flyweight cache may hold before it is reset.
_INTERN_CACHE_LIMIT = 1 << 17


def intern_triple(relation: str, first: str, second: str) -> Triple:
    """The one shared :class:`Triple` for ``(relation, first, second)``."""
    key = (relation, first, second)
    triple = _TRIPLE_CACHE.get(key)
    if triple is None:
        if len(_TRIPLE_CACHE) >= _INTERN_CACHE_LIMIT:
            _TRIPLE_CACHE.clear()
        triple = _TRIPLE_CACHE[key] = Triple(relation, first, second)
    return triple


def intern_pattern(
    events: tuple[str, ...], triples: tuple[Triple, ...]
) -> TemporalPattern:
    """The one shared :class:`TemporalPattern` for ``(events, triples)``.

    Construction (and its ``__post_init__`` validation) runs once per
    distinct pattern per process; every later request is two dict probes.
    """
    key = (events, triples)
    pattern = _PATTERN_CACHE.get(key)
    if pattern is None:
        if len(_PATTERN_CACHE) >= _INTERN_CACHE_LIMIT:
            _PATTERN_CACHE.clear()
        pattern = _PATTERN_CACHE[key] = TemporalPattern(events, triples)
    return pattern


def intern_pair_pattern(relation: str, first: str, second: str) -> TemporalPattern:
    """The interned 2-event pattern ``(first, second)`` under ``relation``."""
    triple = intern_triple(relation, first, second)
    return intern_pattern((first, second), (triple,))


def clear_intern_caches() -> None:
    """Drop the flyweight caches (test isolation / long-lived services)."""
    _TRIPLE_CACHE.clear()
    _PATTERN_CACHE.clear()


# ---------------------------------------------------------------------------
# Verdict-row store of the extension kernel
# ---------------------------------------------------------------------------


class VerdictStore(dict):
    """The Iterative Check's verdict rows, shared across extension calls.

    A verdict row relates one existing instance to a whole new-event
    column.  It depends only on ``(existing event, instance index, new
    event, granule)`` plus what every call sharing the store has in
    common: the ``hlh1`` columns, the candidate triples, the check flag
    and the relation config.  So one store serves every extension-kernel
    call with those four equal -- the group tasks of one batch level
    (:class:`~repro.core.stpm.LevelContext` owns one), or the extension
    calls of one streaming advance -- and each row is built once there
    instead of once per call.  The layout inside is private to the
    extension kernel.

    The caller owns the store.  Kernels add its nested containers with
    ``dict.setdefault`` only, so threads sharing a store never replace a
    container another thread is filling (two threads can at worst both
    build one row, and the rows are equal).  It pickles empty.
    """

    __slots__ = ()

    def __reduce__(self):
        return (VerdictStore, ())


# ---------------------------------------------------------------------------
# Encoded assignment decoding
# ---------------------------------------------------------------------------


def decode_assignment(
    hlh1, events: Sequence[str], granule: int, encoded: Iterable[int]
) -> tuple[EventInstance, ...]:
    """Rematerialize an encoded assignment into its instance tuple.

    ``events`` is the pattern's chronological event tuple; ``encoded[i]``
    indexes the instance of ``events[i]`` in its ``(event, granule)``
    column.  The result is chronologically ordered by construction.
    """
    return tuple(
        hlh1.column_of(event, granule).instances[index]
        for event, index in zip(events, encoded)
    )
