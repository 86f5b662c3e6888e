"""Mutable miner state for incremental seasonal-pattern mining.

The batch miner (Alg. 1) rebuilds its hierarchical lookup hashes from
scratch on every run.  The streaming miner instead *maintains* them: this
module holds the mutable per-event / per-group / per-pattern records the
incremental algorithm updates granule by granule, plus live
:class:`~repro.core.hlh.HLH1` / :class:`~repro.core.hlh.HLHk` mirrors so
the batch miner's inner loops
(:func:`~repro.core.array_kernel.array_collect_pair_patterns`,
:func:`~repro.core.array_kernel.array_extend_group_patterns`) run
unchanged against the streamed state.

Why appends are cheap
---------------------
Everything the miners gate on is *monotone* under granule appends:

* support sets only gain positions (one ``|=`` per event per granule on
  the big-int bitset from PR 1);
* the maxSeason candidate gate ``|SUP|/minDensity >= minSeason`` (Eq. (1))
  can only flip from failed to passed -- a candidate event, group, or
  pattern never loses candidacy;
* the candidate-triple set consulted by the Iterative Check only grows;
* season chains (Defs. 3.13-3.15) are built left-to-right, so appending
  granules never removes a season from the best chain.

The state therefore records, per group, *how far* it has been enumerated
(``processed_upto``) and which parent patterns it has incorporated; an
advance only touches the tail plus the bounded one-time catch-ups of
objects that newly crossed a gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import MiningParams
from repro.core.hlh import HLH1, Assignment, HLHk
from repro.core.pattern import TemporalPattern, Triple
from repro.core.seasonality import SeasonView, compute_seasons
from repro.core.supportset import bit_positions

__all__ = [
    "EventState",
    "GroupState",
    "MinerState",
    "PatternState",
    "bit_positions",
    "mask_upto",
]


def mask_upto(position: int) -> int:
    """Bitmask covering granule positions ``0..position`` inclusive."""
    return (1 << (position + 1)) - 1


@dataclass
class EventState:
    """Streaming record of one temporal event (the HLH1 row)."""

    event: str
    bits: int = 0
    candidate: bool = False
    view: SeasonView | None = None
    view_support_len: int = -1


@dataclass
class PatternState:
    """Streaming record of one candidate pattern (the PHk/GHk rows).

    ``support`` / ``assignments`` grow in place, with ``bits`` as the
    equivalent bitmask (kept so the PHk mirror refresh is O(1) instead
    of re-packing the whole support per advance).
    ``assignments`` holds the kernels' compact column-index encoding
    (see :mod:`repro.core.instance_index`) -- the shared inner loops
    produce and consume it, and the HLH mirrors store the same lists.
    It stays empty at the last level (``k == max_pattern_length``),
    which nothing extends.  The cached :class:`SeasonView` is valid only
    while ``view_support_len`` matches the support length (supports are
    append-only, so length is a sufficient fingerprint).
    """

    support: list[int] = field(default_factory=list)
    assignments: dict[int, list[Assignment]] = field(default_factory=dict)
    bits: int = 0
    candidate: bool = False
    view: SeasonView | None = None
    view_support_len: int = -1


@dataclass
class GroupState:
    """Streaming record of one k-event group (the EHk row).

    For k >= 3 the extension bookkeeping records which parent patterns of
    the fixed ``parent_group`` have been incorporated over the full
    history, so an advance extends incorporated patterns over the tail
    only and newly candidate parent patterns over their full support.
    ``revision`` bumps whenever the group's patterns were rebuilt from
    scratch (old granules touched), telling dependent (k+1)-groups their
    incremental premise broke.
    """

    group: tuple[str, ...]
    bits: int | None = None
    candidate: bool = False
    patterns: dict[TemporalPattern, PatternState] = field(default_factory=dict)
    processed_upto: int = 0
    parent_group: tuple[str, ...] | None = None
    extension_event: str | None = None
    incorporated: set[TemporalPattern] = field(default_factory=set)
    parent_revision: int = 0
    triples_revision: int = 0
    revision: int = 0


@dataclass
class MinerState:
    """The full mutable state of one :class:`IncrementalSTPM` run.

    ``hlh1`` / ``hlhk`` are live mirrors of the batch miner's lookup
    hashes, kept consistent with the event/group/pattern records after
    every advance so the shared mining inner loops (and any HLH-level
    introspection) see exactly what a batch run over the same prefix
    would have built.
    """

    params: MiningParams
    n_granules: int = 0
    events: dict[str, EventState] = field(default_factory=dict)
    levels: dict[int, dict[tuple[str, ...], GroupState]] = field(default_factory=dict)
    hlh1: HLH1 = field(default_factory=HLH1)
    hlhk: dict[int, HLHk] = field(default_factory=dict)
    candidate_triples: set[Triple] = field(default_factory=set)
    triples_revision: int = 0
    pair_revision: dict[frozenset[str], int] = field(default_factory=dict)

    def level(self, k: int) -> dict[tuple[str, ...], GroupState]:
        """The group-state table of level ``k`` (created on first use)."""
        return self.levels.setdefault(k, {})

    def mirror(self, k: int) -> HLHk:
        """The HLHk mirror of level ``k`` (created on first use)."""
        mirror = self.hlhk.get(k)
        if mirror is None:
            mirror = self.hlhk[k] = HLHk(k=k)
        return mirror

    def register_triple(self, triple: Triple) -> None:
        """Record a newly candidate 2-event pattern's relation triple.

        Bumps the triples revision and remembers, per unordered event
        pair, when a triple of that pair last appeared -- the k >= 3
        rebuild test consults this to find groups whose Iterative Check
        could now accept previously rejected extensions.
        """
        if triple in self.candidate_triples:
            return
        self.triples_revision += 1
        self.candidate_triples.add(triple)
        self.pair_revision[frozenset((triple.first, triple.second))] = (
            self.triples_revision
        )

    def triples_affect_group(self, state: GroupState) -> bool:
        """Could triples added since the group's last full pass matter?

        The Iterative Check only relates instances of the parent's events
        with instances of the extension event, so the group is affected
        exactly when a triple over one of those unordered pairs appeared
        after ``state.triples_revision``.
        """
        since = state.triples_revision
        event = state.extension_event
        return any(
            self.pair_revision.get(frozenset((member, event)), 0) > since
            for member in state.parent_group or ()
        )

    def event_view(self, state: EventState) -> SeasonView:
        """The (cached) seasonal decomposition of one event's support."""
        size = state.bits.bit_count()
        if state.view is None or state.view_support_len != size:
            state.view = compute_seasons(bit_positions(state.bits), self.params)
            state.view_support_len = size
        return state.view

    def pattern_view(self, state: PatternState) -> SeasonView:
        """The (cached) seasonal decomposition of one pattern's support."""
        size = len(state.support)
        if state.view is None or state.view_support_len != size:
            state.view = compute_seasons(state.support, self.params)
            state.view_support_len = size
        return state.view
