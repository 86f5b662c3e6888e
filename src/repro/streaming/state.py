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
  the big-int bitset);
* the candidate gate, the season-chain bound ``C(SUP) >= minSeason`` of
  :func:`~repro.core.seasonality.is_season_candidate`, can only flip from
  failed to passed: in a support that gains granules, by an append or a
  catch-up merge, every window of the old support still starts a window
  that ends no later, so the greedy walk finds at least as many and ``C``
  never falls.  A candidate event, group, or pattern never loses
  candidacy, so the events in each level's candidate patterns and the
  groups with candidate patterns only grow too;
* the candidate-triple set consulted by the Iterative Check only grows;
* season chains (Defs. 3.13-3.15) are built left-to-right, so appending
  granules never removes a season from the best chain.

The state therefore records, per group, *how far* it has been enumerated
(``processed_upto``) and which parent patterns it has incorporated, and
indexes the candidate k >= 3 groups by parent group and by the (parent
member, extension event) pairs the Iterative Check relates, so an advance
finds the groups it changed without scanning the others.  Each event and
pattern keeps a :class:`~repro.core.seasonality.SeasonChain`: its first
view walks the whole support once, and an append re-walks only the open
near set and the new granules.  Tail enumerations always append; a
k >= 3 pattern's full-support catch-up (a newly candidate parent pattern)
merges instead, and should it add a granule below the pattern's last
one, the chain walks the whole support again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import MiningParams
from repro.core.hlh import HLH1, Assignment, HLHk
from repro.core.pattern import TemporalPattern, Triple
from repro.core.seasonality import SeasonChain, SeasonView
from repro.core.supportset import SupportSet, bit_positions
from repro.obs import counters as metrics

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
    """Streaming record of one temporal event (the HLH1 row).

    ``chain.support`` holds the event's positions, ``bits`` the same set
    as a bitmask.
    """

    event: str
    bits: int = 0
    candidate: bool = False
    chain: SeasonChain = field(default_factory=SeasonChain)


@dataclass
class PatternState:
    """Streaming record of one candidate pattern (the PHk/GHk rows).

    The support (``chain.support``) and ``assignments`` grow in place,
    with ``bits`` as the equivalent bitmask (kept so the PHk mirror
    refresh is O(1) instead of re-packing the whole support per advance).
    ``assignments`` holds the kernels' compact column-index encoding
    (see :mod:`repro.core.instance_index`) -- the shared inner loops
    produce and consume it, and the HLH mirrors store the same lists.
    It stays empty at the last level (``k == max_pattern_length``),
    which nothing extends.
    """

    assignments: dict[int, list[Assignment]] = field(default_factory=dict)
    bits: int = 0
    candidate: bool = False
    chain: SeasonChain = field(default_factory=SeasonChain)


@dataclass
class GroupState:
    """Streaming record of one k-event group (the EHk row).

    For k >= 3 the extension bookkeeping records which parent patterns of
    the fixed ``parent_group`` have been incorporated over the full
    history, so an advance extends incorporated patterns over the tail
    only and newly candidate parent patterns over their full support.
    ``rank`` is the group's insertion index in its level's EHk mirror
    (the order the batch miner walks parent groups in).
    """

    group: tuple[str, ...]
    bits: int | None = None
    candidate: bool = False
    patterns: dict[TemporalPattern, PatternState] = field(default_factory=dict)
    processed_upto: int = 0
    parent_group: tuple[str, ...] | None = None
    extension_event: str | None = None
    incorporated: set[TemporalPattern] = field(default_factory=set)
    rank: int = -1


@dataclass
class MinerState:
    """The full mutable state of one :class:`IncrementalSTPM` run.

    ``hlh1`` / ``hlhk`` are live mirrors of the batch miner's lookup
    hashes, kept consistent with the event/group/pattern records after
    every advance so the shared mining inner loops (and any HLH-level
    introspection) see exactly what a batch run over the same prefix
    would have built.  ``pattern_events[k]`` is level k's
    ``HLHk.events_in_patterns()`` (the Lemma 4 filter), ``children`` maps
    a group to the candidate groups extending it, and ``triple_groups``
    maps an unordered (parent member, extension event) pair to the
    candidate k >= 3 groups whose Iterative Check relates it.
    """

    params: MiningParams
    n_granules: int = 0
    events: dict[str, EventState] = field(default_factory=dict)
    levels: dict[int, dict[tuple[str, ...], GroupState]] = field(default_factory=dict)
    hlh1: HLH1 = field(default_factory=HLH1)
    hlhk: dict[int, HLHk] = field(default_factory=dict)
    candidate_triples: set[Triple] = field(default_factory=set)
    pattern_events: dict[int, set[str]] = field(default_factory=dict)
    children: dict[tuple[str, ...], list[tuple[str, ...]]] = field(default_factory=dict)
    triple_groups: dict[frozenset[str], list[tuple[str, ...]]] = field(
        default_factory=dict
    )

    def level(self, k: int) -> dict[tuple[str, ...], GroupState]:
        """The group-state table of level ``k`` (created on first use)."""
        return self.levels.setdefault(k, {})

    def mirror(self, k: int) -> HLHk:
        """The HLHk mirror of level ``k`` (created on first use)."""
        mirror = self.hlhk.get(k)
        if mirror is None:
            mirror = self.hlhk[k] = HLHk(k=k)
        return mirror

    def add_candidate_group(self, k: int, state: GroupState) -> None:
        """Register a group that passed the candidate gate.

        A k >= 3 group's ``parent_group`` and ``extension_event`` must be
        set: they are indexed here, and fixed from now on.
        """
        state.candidate = True
        mirror = self.mirror(k)
        state.rank = len(mirror.ehk)
        mirror.add_group(state.group, SupportSet(state.bits))
        if k >= 3:
            self.children.setdefault(state.parent_group, []).append(state.group)
            for member in set(state.parent_group):
                pair = frozenset((member, state.extension_event))
                self.triple_groups.setdefault(pair, []).append(state.group)

    def event_view(self, state: EventState) -> SeasonView:
        """The seasonal decomposition of one event's support."""
        return self._refresh(state.chain)

    def pattern_view(self, state: PatternState) -> SeasonView:
        """The seasonal decomposition of one pattern's support."""
        return self._refresh(state.chain)

    def _refresh(self, chain: SeasonChain) -> SeasonView:
        if chain.fresh and metrics.metrics_enabled():
            metrics.inc("stream.views.recomputed")
        return chain.refresh(self.params)
