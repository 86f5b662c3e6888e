"""Incremental E-STPM: mine seasonal patterns over a growing DSEQ.

:class:`IncrementalSTPM` maintains the batch miner's candidate universe
(HLH1/HLHk plus per-pattern supports and assignments) under granule
appends.  Each :meth:`IncrementalSTPM.advance` call

1. extends every occurring event's support bitset (one ``|=`` per event)
   and the instance tables of candidate events;
2. for candidate 2-event groups, enumerates instance pairs only at the
   *tail* granules of the advance; groups that newly pass the candidate
   gate (the season-chain bound shared with the batch miner) get a one-time
   catch-up pass over their full support;
3. for k >= 3, visits only the groups on a worklist derived from what
   the advance changed, never scanning the others.  A group is visited
   when (T1) every member occurs in the new granules, (T2) it is
   candidate and its parent group gained candidate patterns or was
   rebuilt, (T3) it is candidate and a candidate triple over one of its
   (parent member, extension event) pairs appeared, or (T4) the batch
   walk generates it for the first time, because a (k-1)-group gained
   its first candidate pattern or an event joined the (k-1)-level
   pattern events.  A visited group extends incorporated parent
   patterns over the tail only and newly candidate parent patterns over
   their full common support; T3 and a parent rebuild redo it from
   scratch;
4. re-evaluates seasons only for the patterns whose support changed --
   an append extends the pattern's season chain over the open near set
   and the new granules, while the chain of a support that gained an
   older granule (or of a fresh pattern state) walks the whole support --
   and reports the frequency transitions as a :class:`PatternDelta`.

Parity guarantee
----------------
Candidacy gates are monotone under appends and the per-granule
enumeration is shared verbatim with the batch miner (the step-2.2
kernels of :mod:`repro.core.array_kernel`; the maintained assignments
use the same compact column-index encoding), so after any prefix the
maintained state matches what batch E-STPM (full pruning, the default)
builds on that prefix.  :meth:`IncrementalSTPM.result` therefore returns
a :class:`~repro.core.results.MiningResult` equivalent to the batch
result -- same frequent patterns, same supports, near sets, and seasons;
only the emission order is canonicalized.  ``reanchor_every=N`` makes the
miner re-run batch E-STPM every N advances and raise
:class:`~repro.exceptions.MiningError` on any divergence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Iterable

from repro.core.array_kernel import (
    array_collect_pair_patterns,
    array_extend_group_patterns,
)
from repro.core.config import MiningParams
from repro.core.pattern import TemporalPattern, single_event_pattern
from repro.core.results import (
    MiningResult,
    MiningStats,
    SeasonalPattern,
    results_equivalent,
)
from repro.core.seasonality import SeasonView, is_season_candidate
from repro.core.instance_index import InstanceColumn, VerdictStore
from repro.obs import counters as metrics
from repro.obs.trace import span
from repro.core.stpm import ESTPM
from repro.core.supportset import SupportSet
from repro.events.sequence import TemporalSequence
from repro.exceptions import ConfigError, MiningError
from repro.streaming.state import (
    EventState,
    GroupState,
    MinerState,
    PatternState,
    bit_positions,
    mask_upto,
)
from repro.transform.sequence_db import TemporalSequenceDatabase

#: Snapshot of a pattern's pre-advance seasonal status: (frequent?, view).
_Snapshot = tuple[bool, SeasonView | None]


@dataclass
class _Advance:
    """One advance's bookkeeping: pre-advance snapshots and what changed.

    ``changed`` holds the events occurring in the new granules.  The rest
    feeds the k >= 3 worklist: the groups that gained candidate patterns
    (``grown``; ``first`` when they had none before) or were ``rebuilt``,
    the events that ``joined`` each level's pattern events, the unordered
    event pairs of the candidate triples that appeared, and the groups of
    the level last advanced whose members all changed.  HLH1 and the
    candidate triples are final once the pairs are done, so all the
    advance's extension calls share one verdict store.
    """

    changed: set[str] = field(default_factory=set)
    touched_events: dict[str, _Snapshot] = field(default_factory=dict)
    touched: dict[TemporalPattern, _Snapshot] = field(default_factory=dict)
    grown: set[tuple[str, ...]] = field(default_factory=set)
    first: set[tuple[str, ...]] = field(default_factory=set)
    rebuilt: set[tuple[str, ...]] = field(default_factory=set)
    joined: dict[int, set[str]] = field(default_factory=dict)
    triple_pairs: set[frozenset[str]] = field(default_factory=set)
    all_changed: set[tuple[str, ...]] = field(default_factory=set)
    verdict_store: VerdictStore = field(default_factory=VerdictStore)


def canonical_sort_key(sp: SeasonalPattern):
    """Deterministic result ordering: by size, then events, then triples."""
    return (sp.size, sp.pattern.events, sp.pattern.triples)


@dataclass
class PatternDelta:
    """What one :meth:`IncrementalSTPM.advance` changed.

    Attributes
    ----------
    n_granules:
        Total granules mined after the advance.
    new_granules:
        Granules consumed by this advance.
    promoted:
        Patterns that crossed ``minSeason`` and are now frequent.
    updated:
        Patterns frequent before and after, whose seasonal evidence
        (support / near sets / seasons) changed.
    demoted:
        Patterns that stopped being frequent.  Empty in append-only
        streams (season chains are monotone under appends); kept so
        downstream consumers handle future eviction semantics.
    seconds:
        Wall-clock cost of the advance.
    """

    n_granules: int
    new_granules: int
    promoted: list[SeasonalPattern] = field(default_factory=list)
    updated: list[SeasonalPattern] = field(default_factory=list)
    demoted: list[TemporalPattern] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def has_changes(self) -> bool:
        """Did any pattern change frequency status or evidence?"""
        return bool(self.promoted or self.updated or self.demoted)

    def describe(self) -> str:
        """One-line summary for stream logs."""
        return (
            f"granule {self.n_granules} (+{self.new_granules}): "
            f"{len(self.promoted)} promoted, {len(self.updated)} updated, "
            f"{len(self.demoted)} demoted [{self.seconds * 1000:.1f} ms]"
        )


@dataclass
class IncrementalSTPM:
    """Streaming E-STPM over a growing temporal sequence database.

    Parameters
    ----------
    dseq:
        The temporal sequence database being streamed into.  Rows
        appended to it (``TemporalSequenceDatabase.append_row``, usually
        via :class:`~repro.streaming.ingest.StreamingDatabase`) are
        consumed by the next :meth:`advance` call.
    params:
        The seasonal thresholds; identical semantics to batch E-STPM.
    reanchor_every:
        If set (>= 1), every N-th advance re-mines the full prefix with
        batch E-STPM and raises :class:`MiningError` on any divergence --
        the paranoia knob for long-lived deployments.  ``None`` turns it
        off; other values raise :class:`~repro.exceptions.ConfigError`.

    The miner always applies both lossless prunings
    (:class:`~repro.core.prune.PruningConfig` ``all``), matching the
    batch miner's default configuration.
    """

    dseq: TemporalSequenceDatabase
    params: MiningParams
    reanchor_every: int | None = None

    def __post_init__(self) -> None:
        if self.reanchor_every is not None and self.reanchor_every < 1:
            raise ConfigError(
                f"reanchor_every must be >= 1, got {self.reanchor_every}"
            )
        self.state = MinerState(params=self.params)
        self.n_advances = 0

    @classmethod
    def empty(
        cls,
        ratio: int,
        params: MiningParams,
        reanchor_every: int | None = None,
    ) -> "IncrementalSTPM":
        """A miner over a fresh, empty DSEQ with the given mapping ratio."""
        return cls(
            TemporalSequenceDatabase(rows=[], ratio=ratio),
            params,
            reanchor_every=reanchor_every,
        )

    @property
    def n_granules(self) -> int:
        """Granules mined so far."""
        return self.state.n_granules

    # ------------------------------------------------------------------
    # The advance
    # ------------------------------------------------------------------

    def advance(self, rows: Iterable[TemporalSequence] | None = None) -> PatternDelta:
        """Consume all unprocessed granules and return the pattern delta.

        ``rows``, if given, are appended to the database first (a
        convenience for callers without a :class:`StreamingDatabase`).
        """
        with span("stream/advance") as advance_span:
            delta = self._advance(rows)
            advance_span.set(
                new_granules=delta.new_granules,
                promoted=len(delta.promoted),
                updated=len(delta.updated),
            )
        if metrics.metrics_enabled():
            metrics.inc("stream.advances")
            metrics.inc("stream.granules_ingested", delta.new_granules)
            metrics.inc("stream.patterns.promoted", len(delta.promoted))
            metrics.inc("stream.patterns.updated", len(delta.updated))
            metrics.observe("stream.advance_seconds", delta.seconds)
        return delta

    def _advance(self, rows: Iterable[TemporalSequence] | None = None) -> PatternDelta:
        started = time.perf_counter()
        if rows is not None:
            for row in rows:
                self.dseq.append_row(row)
        state = self.state
        prev_n = state.n_granules
        new_n = len(self.dseq)
        if new_n == prev_n:
            return PatternDelta(n_granules=new_n, new_granules=0)

        adv = _Advance()
        newly_candidate = self._update_events(self.dseq.rows[prev_n:new_n], adv)
        if self.params.max_pattern_length >= 2:
            self._update_pairs(newly_candidate, adv)
            for k in range(3, self.params.max_pattern_length + 1):
                self._update_extensions(k, adv)
        state.n_granules = new_n

        delta = self._build_delta(prev_n, new_n, adv, started)
        self.n_advances += 1
        if self.reanchor_every is not None and self.n_advances % self.reanchor_every == 0:
            self.verify_parity()
        return delta

    # ------------------------------------------------------------------
    # Level 1: events
    # ------------------------------------------------------------------

    def _update_events(self, new_rows: list[TemporalSequence], adv: _Advance) -> list[str]:
        """Extend event supports / instance tables.

        Records the events occurring in the new granules in
        ``adv.changed`` and returns those that newly crossed the
        candidate gate.
        """
        state = self.state
        params = self.params
        changed = adv.changed
        newly_candidate: list[str] = []
        for row in new_rows:
            position = row.position
            for event in row.events():
                es = state.events.get(event)
                if es is None:
                    es = state.events[event] = EventState(event)
                changed.add(event)
                es.bits |= 1 << position
                es.chain.extend([position])
                if es.candidate:
                    state.hlh1.gh[event][position] = InstanceColumn.from_instances(
                        row.instances_of(event)
                    )
        for event in sorted(changed):
            es = state.events[event]
            if es.candidate:
                state.hlh1.eh[event] = SupportSet(es.bits)
            elif is_season_candidate(es.chain.support, params):
                es.candidate = True
                newly_candidate.append(event)
                columns = {
                    position: InstanceColumn.from_instances(
                        self.dseq.instances_at(position, event)
                    )
                    for position in es.chain.support
                }
                state.hlh1.add_event(event, SupportSet(es.bits), columns)
            else:
                continue
            adv.touched_events.setdefault(event, self._snapshot_view(es.chain.view))
        return newly_candidate

    # ------------------------------------------------------------------
    # Level 2: event pairs
    # ------------------------------------------------------------------

    def _update_pairs(self, newly_candidate: list[str], adv: _Advance) -> None:
        """Advance every affected candidate 2-event group (step 2.2, k = 2).

        A pair's support can only change when *both* its events occur in
        a new granule, and a pair first needs evaluating when its later
        member crosses the candidate gate -- so instead of walking all
        O(|F1|^2) pairs per advance, walk the changed-candidate pairs
        plus the (newly candidate x all candidates) cross.
        """
        state = self.state
        params = self.params
        changed = adv.changed
        level = state.level(2)
        mirror = state.mirror(2)
        new_n = len(self.dseq)
        changed_candidates = sorted(
            event for event in changed if state.events[event].candidate
        )
        adv.all_changed = set(combinations_with_replacement(changed_candidates, 2))
        pairs = set(adv.all_changed)
        if newly_candidate:
            candidates = [
                event for event, es in state.events.items() if es.candidate
            ]
            for new_event in newly_candidate:
                for other in candidates:
                    pairs.add(tuple(sorted((new_event, other))))
        for event_a, event_b in sorted(pairs):
            both_changed = event_a in changed and event_b in changed
            group = (event_a, event_b)
            gs = level.get(group)
            if gs is None:
                gs = level[group] = GroupState(group)
            if gs.candidate:
                if not both_changed:
                    continue
                bits = state.events[event_a].bits & state.events[event_b].bits
                tail = bits & ~mask_upto(gs.processed_upto)
                if tail:
                    gs.bits = bits
                    mirror.ehk[group].support = SupportSet(bits)
                    self._collect_pairs(gs, bit_positions(tail), adv)
                gs.processed_upto = new_n
                continue
            # The support of an unevaluated or still-gated group can only
            # have changed when both events occur in a new granule.
            if gs.bits is not None and not both_changed:
                continue
            gs.bits = state.events[event_a].bits & state.events[event_b].bits
            if not is_season_candidate(gs.bits, params):
                continue
            state.add_candidate_group(2, gs)
            self._collect_pairs(gs, bit_positions(gs.bits), adv)
            gs.processed_upto = new_n

    def _collect_pairs(self, gs: GroupState, granules: list[int], adv: _Advance) -> None:
        """Enumerate one pair group's instances over ``granules``."""
        support_out: dict[TemporalPattern, list[int]] = {}
        assignments_out: dict[TemporalPattern, dict] = {}
        event_a, event_b = gs.group
        array_collect_pair_patterns(
            self.state.hlh1, event_a, event_b, granules,
            self.params.relation, support_out, assignments_out,
        )
        self._merge_outcomes(2, gs, support_out, assignments_out, adv)

    # ------------------------------------------------------------------
    # Levels k >= 3: the changed-group worklist
    # ------------------------------------------------------------------

    def _update_extensions(self, k: int, adv: _Advance) -> None:
        """Advance the k-event groups this advance can have changed
        (step 2.2, k >= 3).

        The batch walk generates a k-group from every (k-1)-group with
        candidate patterns and every event of the (k-1)-level pattern
        events (Lemma 4).  A generated group needs work only when one of
        the four triggers holds; the other groups keep their support,
        gate verdict and patterns.  The worklist is visited in the walk's
        order, so a group crossing the gate is extended from the parent
        the walk would reach it through.
        """
        state = self.state
        if not state.pattern_events.get(k - 1):
            return
        changed = self._groups_with_changed_members(k, adv)
        rebuild = self._groups_with_new_triples(k, adv)
        work = changed | rebuild
        work.update(self._children_of_changed_parents(k, adv))
        work.update(self._newly_generated_groups(k, adv))
        adv.all_changed = changed
        if metrics.metrics_enabled():
            metrics.inc("stream.groups.visited", len(work))
        level = state.level(k)
        for _, event, parent, group in sorted(
            (*self._walk_position(k, group), group) for group in work
        ):
            gs = level.get(group)
            if gs is None:
                gs = level[group] = GroupState(group)
            self._advance_extension_group(
                k, gs, parent, event,
                group in rebuild or gs.parent_group in adv.rebuilt, adv,
            )

    def _groups_with_changed_members(self, k: int, adv: _Advance) -> set[tuple[str, ...]]:
        """(T1) Generated k-groups whose members all occur in the new
        granules -- the only ones whose support can have changed.

        Every parent of such a group has all-changed members too, so they
        are the all-changed (k-1)-groups with candidate patterns times the
        changed (k-1)-level pattern events.
        """
        prev_ehk = self.state.mirror(k - 1).ehk
        events = adv.changed.intersection(self.state.pattern_events[k - 1])
        groups: set[tuple[str, ...]] = set()
        for parent in adv.all_changed:
            entry = prev_ehk.get(parent)
            if entry is not None and entry.patterns:
                groups.update(tuple(sorted((*parent, event))) for event in events)
        return groups

    def _children_of_changed_parents(self, k: int, adv: _Advance) -> set[tuple[str, ...]]:
        """(T2) Candidate k-groups whose parent group gained candidate
        patterns or was rebuilt in this advance."""
        children = self.state.children
        return {
            child
            for parent in adv.grown | adv.rebuilt
            if len(parent) == k - 1
            for child in children.get(parent, ())
        }

    def _groups_with_new_triples(self, k: int, adv: _Advance) -> set[tuple[str, ...]]:
        """(T3) Candidate k-groups whose Iterative Check relates an event
        pair that gained a candidate triple in this advance: old granules
        may now admit extensions it rejected, so these are rebuilt."""
        triple_groups = self.state.triple_groups
        return {
            group
            for pair in adv.triple_pairs
            for group in triple_groups.get(pair, ())
            if len(group) == k
        }

    def _newly_generated_groups(self, k: int, adv: _Advance) -> set[tuple[str, ...]]:
        """(T4) k-groups the walk generates for the first time: a
        (k-1)-group gained its first candidate pattern, or an event joined
        the (k-1)-level pattern events."""
        state = self.state
        level = state.level(k)
        sources = [
            (parent, state.pattern_events[k - 1])
            for parent in adv.first
            if len(parent) == k - 1
        ]
        joined = adv.joined.get(k - 1)
        if joined:
            sources += [
                (parent, joined)
                for parent, entry in state.mirror(k - 1).ehk.items()
                if entry.patterns
            ]
        groups: set[tuple[str, ...]] = set()
        for parent, events in sources:
            for event in events:
                group = tuple(sorted((*parent, event)))
                if group not in level:
                    groups.add(group)
        return groups

    def _walk_position(
        self, k: int, group: tuple[str, ...]
    ) -> tuple[int, str, tuple[str, ...]]:
        """Where the batch walk first generates ``group``: the lowest
        (parent rank, event) over its (k-1)-subgroups with candidate
        patterns whose left-out event is a (k-1)-level pattern event.
        Returns that rank, event and parent."""
        state = self.state
        prev_level = state.level(k - 1)
        prev_ehk = state.mirror(k - 1).ehk
        events = state.pattern_events[k - 1]
        first = None
        for index, event in enumerate(group):
            if (index and group[index - 1] == event) or event not in events:
                continue
            parent = group[:index] + group[index + 1 :]
            entry = prev_ehk.get(parent)
            if entry is None or not entry.patterns:
                continue
            position = (prev_level[parent].rank, event, parent)
            if first is None or position < first:
                first = position
        if first is None:
            raise MiningError(f"group {group} has no generating parent")
        return first

    def _advance_extension_group(
        self,
        k: int,
        gs: GroupState,
        parent: tuple[str, ...],
        event: str,
        rebuild: bool,
        adv: _Advance,
    ) -> None:
        """Bring one k-event group's pattern state up to the new horizon.

        ``parent`` and ``event`` are where the walk generates the group;
        ``rebuild`` asks a candidate group for a from-scratch pass (its
        parent group was rebuilt or it gained candidate triples).
        """
        state = self.state
        params = self.params
        mirror = state.mirror(k)
        bits = state.events[gs.group[0]].bits
        for member in gs.group[1:]:
            bits &= state.events[member].bits
        bits_changed = bits != gs.bits
        gs.bits = bits
        if not gs.candidate:
            if not is_season_candidate(bits, params):
                return
            # The group crosses the gate now: fix its extension parent
            # (any candidate parent yields the same pattern set -- every
            # sub-pattern of a candidate pattern is itself a candidate
            # with full assignments) and catch up over the full support.
            gs.parent_group = parent
            gs.extension_event = event
            state.add_candidate_group(k, gs)
            self._rebuild_extension_group(k, gs, adv)
            return
        if bits_changed:
            mirror.ehk[gs.group].support = SupportSet(bits)
        if rebuild:
            # Old granules may now admit new patterns/assignments: the
            # incremental premise broke, redo the group batch-style.
            self._rebuild_extension_group(k, gs, adv)
            return
        entry_prev = state.mirror(k - 1).ehk[gs.parent_group]
        fresh: list[TemporalPattern] = []
        previously: list[TemporalPattern] = []
        for pattern in entry_prev.patterns:
            (previously if pattern in gs.incorporated else fresh).append(pattern)
        tail = bits & ~mask_upto(gs.processed_upto)
        if fresh:
            # Newly candidate parent patterns: their assignments cover
            # old granules too, so extend them over the full support.
            self._extend_group(k, gs, entry_prev, fresh, None, adv)
            gs.incorporated.update(fresh)
        if tail and previously:
            self._extend_group(
                k, gs, entry_prev, previously, bit_positions(tail), adv
            )
        gs.processed_upto = len(self.dseq)

    def _rebuild_extension_group(self, k: int, gs: GroupState, adv: _Advance) -> None:
        """Re-extend one group from scratch over its full support."""
        state = self.state
        mirror = state.mirror(k)
        if gs.patterns:
            for pattern, ps in gs.patterns.items():
                if ps.candidate:
                    adv.touched.setdefault(pattern, self._snapshot_view(ps.chain.view))
                    mirror.remove_pattern(pattern)
            gs.patterns = {}
            adv.rebuilt.add(gs.group)
        entry_prev = state.mirror(k - 1).ehk[gs.parent_group]
        self._extend_group(k, gs, entry_prev, list(entry_prev.patterns), None, adv)
        gs.incorporated = set(entry_prev.patterns)
        gs.processed_upto = len(self.dseq)

    def _extend_group(
        self,
        k: int,
        gs: GroupState,
        entry_prev,
        parent_patterns: list[TemporalPattern],
        granule_filter: list[int] | None,
        adv: _Advance,
    ) -> None:
        """Run the shared extension loop and merge its outcomes."""
        state = self.state
        support_out, assignments_out = array_extend_group_patterns(
            state.hlh1,
            state.mirror(k - 1),
            entry_prev,
            gs.extension_event,
            state.candidate_triples,
            self.params,
            True,
            adv.verdict_store,
            parent_patterns=parent_patterns,
            granule_filter=granule_filter,
        )
        self._merge_outcomes(k, gs, support_out, assignments_out, adv)

    # ------------------------------------------------------------------
    # Shared pattern-state merging and candidacy registration
    # ------------------------------------------------------------------

    def _merge_outcomes(
        self,
        k: int,
        gs: GroupState,
        support_out: dict[TemporalPattern, list[int]],
        assignments_out: dict[TemporalPattern, dict],
        adv: _Advance,
    ) -> None:
        """Fold one enumeration's outcomes into the group's pattern states.

        Tail enumerations run over granules above everything processed
        before, so their supports append in place and hand the new
        granules to the season chain.  A full-support catch-up (a newly
        candidate parent pattern) re-derives assignments already found
        through a previously incorporated parent pattern, so its
        assignments merge as per-granule sets -- exactly the
        deduplication the batch accumulator performs within one group
        task -- and its support goes through the chain's general merge,
        which also covers a granule below the pattern's last one.
        Nothing extends the last level, so its patterns keep supports
        only.
        """
        state = self.state
        params = self.params
        mirror = state.mirror(k)
        keep = k < params.max_pattern_length
        for pattern, new_support in support_out.items():
            ps = gs.patterns.get(pattern)
            if ps is None:
                ps = gs.patterns[pattern] = PatternState()
            if keep:
                assignments = ps.assignments
                for granule, found in assignments_out[pattern].items():
                    existing = assignments.get(granule)
                    assignments[granule] = (
                        found if existing is None else sorted(set(existing) | set(found))
                    )
            ps.chain.extend(new_support)
            bits = ps.bits
            for granule in new_support:
                bits |= 1 << granule
            ps.bits = bits
            if ps.candidate:
                mirror.phk[pattern] = SupportSet(bits)
            elif is_season_candidate(ps.chain.support, params):
                ps.candidate = True
                self._register_pattern(k, gs, pattern, ps, adv)
            else:
                continue
            adv.touched.setdefault(pattern, self._snapshot_view(ps.chain.view))

    def _register_pattern(
        self,
        k: int,
        gs: GroupState,
        pattern: TemporalPattern,
        ps: PatternState,
        adv: _Advance,
    ) -> None:
        """Add a newly candidate pattern to the mirror and to the
        worklist triggers of level k + 1."""
        state = self.state
        mirror = state.mirror(k)
        if not mirror.ehk[gs.group].patterns:
            adv.first.add(gs.group)
        adv.grown.add(gs.group)
        mirror.add_pattern(pattern, SupportSet(ps.bits), ps.assignments)
        events = state.pattern_events.setdefault(k, set())
        for event in pattern.events:
            if event not in events:
                events.add(event)
                adv.joined.setdefault(k, set()).add(event)
        if k == 2:
            triple = pattern.triples[0]
            state.candidate_triples.add(triple)
            adv.triple_pairs.add(frozenset((triple.first, triple.second)))

    def _snapshot_view(self, view: SeasonView | None) -> _Snapshot:
        """Pre-advance status of a pattern: (was frequent, last view)."""
        frequent = view is not None and view.n_seasons >= self.params.min_season
        return (frequent, view)

    # ------------------------------------------------------------------
    # Delta + result construction
    # ------------------------------------------------------------------

    def _build_delta(
        self, prev_n: int, new_n: int, adv: _Advance, started: float
    ) -> PatternDelta:
        state = self.state
        delta = PatternDelta(n_granules=new_n, new_granules=new_n - prev_n)
        for event, snapshot in adv.touched_events.items():
            es = state.events[event]
            self._classify(
                single_event_pattern(event), state.event_view(es), snapshot, delta
            )
        for pattern, snapshot in adv.touched.items():
            ps = self._pattern_state(pattern)
            self._classify(pattern, state.pattern_view(ps), snapshot, delta)
        delta.promoted.sort(key=canonical_sort_key)
        delta.updated.sort(key=canonical_sort_key)
        delta.seconds = time.perf_counter() - started
        return delta

    def _classify(
        self,
        pattern: TemporalPattern,
        view: SeasonView,
        snapshot: _Snapshot,
        delta: PatternDelta,
    ) -> None:
        was_frequent, old_view = snapshot
        if view.n_seasons >= self.params.min_season:
            sp = SeasonalPattern(pattern, view)
            if not was_frequent:
                delta.promoted.append(sp)
            elif view != old_view:
                delta.updated.append(sp)
        elif was_frequent:  # pragma: no cover - impossible under appends
            delta.demoted.append(pattern)

    def _pattern_state(self, pattern: TemporalPattern) -> PatternState:
        """The state record of a (multi-event) pattern."""
        return self.state.levels[pattern.size][pattern.event_group].patterns[pattern]

    def result(self) -> MiningResult:
        """The full mining result over everything streamed so far.

        Equivalent to batch E-STPM on the same prefix (same patterns,
        same seasonal evidence); patterns are emitted in canonical order
        (size, events, triples).
        """
        state = self.state
        params = self.params
        patterns: list[SeasonalPattern] = []
        for event in sorted(state.hlh1.eh):
            view = state.event_view(state.events[event])
            if view.n_seasons >= params.min_season:
                patterns.append(SeasonalPattern(single_event_pattern(event), view))
        for k in sorted(state.levels):
            for gs in state.levels[k].values():
                for pattern, ps in gs.patterns.items():
                    if not ps.candidate:
                        continue
                    view = state.pattern_view(ps)
                    if view.n_seasons >= params.min_season:
                        patterns.append(SeasonalPattern(pattern, view))
        patterns.sort(key=canonical_sort_key)
        stats = MiningStats(
            n_granules=state.n_granules,
            n_events_scanned=len(state.events),
            n_candidate_events=len(state.hlh1),
        )
        for sp in patterns:
            stats.bump(stats.n_frequent, sp.size)
        return MiningResult(patterns=patterns, stats=stats)

    def border_patterns(self) -> list[SeasonalPattern]:
        """Candidates exactly one season short of ``minSeason``.

        These are the patterns the next few granules are most likely to
        promote -- the "border" a monitoring dashboard watches.  Only
        candidates (supports whose season-chain bound reaches ``minSeason``)
        are listed.
        """
        state = self.state
        threshold = self.params.min_season - 1
        border: list[SeasonalPattern] = []
        if threshold >= 1:
            for event in sorted(state.hlh1.eh):
                view = state.event_view(state.events[event])
                if view.n_seasons == threshold:
                    border.append(
                        SeasonalPattern(single_event_pattern(event), view)
                    )
            for k in sorted(state.levels):
                for gs in state.levels[k].values():
                    for pattern, ps in gs.patterns.items():
                        if ps.candidate:
                            view = state.pattern_view(ps)
                            if view.n_seasons == threshold:
                                border.append(SeasonalPattern(pattern, view))
        border.sort(key=canonical_sort_key)
        return border

    # ------------------------------------------------------------------
    # Parity re-anchoring
    # ------------------------------------------------------------------

    def verify_parity(self) -> MiningResult:
        """Mine the full prefix with batch E-STPM and assert equivalence.

        Returns the batch result; raises :class:`MiningError` with the
        symmetric difference summary when the incremental state diverged
        (which would be a bug -- this is the subsystem's hard guarantee).
        """
        batch = ESTPM(self.dseq, self.params).mine()
        streaming = self.result()
        if not results_equivalent(streaming, batch):
            batch_map = batch.seasonal_map()
            stream_map = streaming.seasonal_map()
            missing = sorted(
                p.describe() for p in set(batch_map) - set(stream_map)
            )[:5]
            extra = sorted(
                p.describe() for p in set(stream_map) - set(batch_map)
            )[:5]
            differing = sorted(
                p.describe()
                for p in set(batch_map) & set(stream_map)
                if batch_map[p] != stream_map[p]
            )[:5]
            raise MiningError(
                "incremental result diverged from batch E-STPM at granule "
                f"{self.state.n_granules}: missing={missing} extra={extra} "
                f"differing={differing}"
            )
        return batch
