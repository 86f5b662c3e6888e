"""Incremental E-STPM: mine seasonal patterns over a growing DSEQ.

:class:`IncrementalSTPM` maintains the batch miner's candidate universe
(HLH1/HLHk plus per-pattern supports and assignments) under granule
appends.  Each :meth:`IncrementalSTPM.advance` call

1. extends every occurring event's support bitset (one ``|=`` per event)
   and the instance tables of candidate events;
2. for candidate 2-event groups, enumerates instance pairs only at the
   *tail* granules of the advance; groups that newly pass the maxSeason
   candidate gate get a one-time catch-up pass over their full support;
3. for k >= 3 groups, extends already incorporated parent patterns over
   the tail only, newly candidate parent patterns over their full common
   support, and rebuilds a group from scratch only when the Iterative
   Check's candidate-triple set grew on one of the group's event pairs
   (or the parent group itself was rebuilt);
4. re-evaluates seasons only for the patterns whose support changed
   (season views are cached by support length) and reports the frequency
   transitions as a :class:`PatternDelta`.

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
from repro.core.seasonality import SeasonView, is_candidate
from repro.core.instance_index import VerdictStore
from repro.obs import counters as metrics
from repro.obs.trace import span
from repro.core.stpm import ESTPM
from repro.core.supportset import default_backend, validate_backend
from repro.events.sequence import TemporalSequence
from repro.exceptions import MiningError
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
    support_backend:
        Physical support-set representation of the maintained state
        (``"bitset"`` / ``"list"``; ``None`` = process default).  Both
        backends produce identical results.
    reanchor_every:
        If set, every N-th advance re-mines the full prefix with batch
        E-STPM and raises :class:`MiningError` on any divergence -- the
        paranoia knob for long-lived deployments.

    The miner always applies both lossless prunings
    (:class:`~repro.core.prune.PruningConfig` ``all``), matching the
    batch miner's default configuration.
    """

    dseq: TemporalSequenceDatabase
    params: MiningParams
    support_backend: str | None = None
    reanchor_every: int | None = None

    def __post_init__(self) -> None:
        backend = validate_backend(self.support_backend or default_backend())
        self.support_backend = backend
        self.state = MinerState(params=self.params, backend=backend)
        self.n_advances = 0

    @classmethod
    def empty(
        cls,
        ratio: int,
        params: MiningParams,
        support_backend: str | None = None,
        reanchor_every: int | None = None,
    ) -> "IncrementalSTPM":
        """A miner over a fresh, empty DSEQ with the given mapping ratio."""
        return cls(
            TemporalSequenceDatabase(rows=[], ratio=ratio),
            params,
            support_backend=support_backend,
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
        new_rows = self.dseq.rows[prev_n:new_n]

        touched_events: dict[str, _Snapshot] = {}
        touched_patterns: dict[TemporalPattern, _Snapshot] = {}
        changed, newly_candidate = self._update_events(new_rows, touched_events)
        if self.params.max_pattern_length >= 2:
            self._update_pairs(changed, newly_candidate, touched_patterns)
            # HLH1 and the candidate triples are final for this advance
            # from here on, so all its extension calls share one store.
            verdict_store = VerdictStore()
            for k in range(3, self.params.max_pattern_length + 1):
                self._update_extensions(k, changed, touched_patterns, verdict_store)
        state.n_granules = new_n

        delta = self._build_delta(
            prev_n, new_n, touched_events, touched_patterns, started
        )
        self.n_advances += 1
        if self.reanchor_every and self.n_advances % self.reanchor_every == 0:
            self.verify_parity()
        return delta

    # ------------------------------------------------------------------
    # Level 1: events
    # ------------------------------------------------------------------

    def _update_events(
        self, new_rows: list[TemporalSequence], touched: dict[str, _Snapshot]
    ) -> tuple[set[str], list[str]]:
        """Extend event supports / instance tables.

        Returns the events whose support changed this advance and the
        subset that newly crossed the candidate gate.
        """
        state = self.state
        params = self.params
        changed: set[str] = set()
        newly_candidate: list[str] = []
        for row in new_rows:
            for event in row.events():
                es = state.events.get(event)
                if es is None:
                    es = state.events[event] = EventState(event)
                changed.add(event)
                es.bits |= 1 << row.position
                if es.candidate:
                    state.hlh1.gh[event][row.position] = row.instances_of(event)
        for event in sorted(changed):
            es = state.events[event]
            if es.candidate:
                state.hlh1.eh[event] = state.support_set(es.bits)
                touched.setdefault(event, self._snapshot_view(es.view))
            elif is_candidate(es.bits.bit_count(), params):
                es.candidate = True
                newly_candidate.append(event)
                instances = {
                    position: self.dseq.instances_at(position, event)
                    for position in bit_positions(es.bits)
                }
                state.hlh1.add_event(event, state.support_set(es.bits), instances)
                touched.setdefault(event, self._snapshot_view(es.view))
        return changed, newly_candidate

    # ------------------------------------------------------------------
    # Level 2: event pairs
    # ------------------------------------------------------------------

    def _update_pairs(
        self,
        changed: set[str],
        newly_candidate: list[str],
        touched: dict[TemporalPattern, _Snapshot],
    ) -> None:
        """Advance every affected candidate 2-event group (step 2.2, k = 2).

        A pair's support can only change when *both* its events occur in
        a new granule, and a pair first needs evaluating when its later
        member crosses the candidate gate -- so instead of walking all
        O(|F1|^2) pairs per advance, walk the changed-candidate pairs
        plus the (newly candidate x all candidates) cross.
        """
        state = self.state
        params = self.params
        level = state.level(2)
        mirror = state.mirror(2)
        new_n = len(self.dseq)
        changed_candidates = sorted(
            event for event in changed if state.events[event].candidate
        )
        pairs = set(combinations_with_replacement(changed_candidates, 2))
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
                    mirror.ehk[group].support = state.support_set(bits)
                    self._collect_pairs(gs, bit_positions(tail), touched)
                gs.processed_upto = new_n
                continue
            # The support of an unevaluated or still-gated group can only
            # have changed when both events occur in a new granule.
            if gs.bits is not None and not both_changed:
                continue
            gs.bits = state.events[event_a].bits & state.events[event_b].bits
            if not is_candidate(gs.bits.bit_count(), params):
                continue
            gs.candidate = True
            mirror.add_group(group, state.support_set(gs.bits))
            self._collect_pairs(gs, bit_positions(gs.bits), touched)
            gs.processed_upto = new_n

    def _collect_pairs(
        self,
        gs: GroupState,
        granules: list[int],
        touched: dict[TemporalPattern, _Snapshot],
    ) -> None:
        """Enumerate one pair group's instances over ``granules``."""
        support_out: dict[TemporalPattern, list[int]] = {}
        assignments_out: dict[TemporalPattern, dict] = {}
        event_a, event_b = gs.group
        array_collect_pair_patterns(
            self.state.hlh1, event_a, event_b, granules,
            self.params.relation, support_out, assignments_out,
        )
        self._merge_outcomes(2, gs, support_out, assignments_out, touched, dedup=False)

    # ------------------------------------------------------------------
    # Levels k >= 3: group extension
    # ------------------------------------------------------------------

    def _update_extensions(
        self,
        k: int,
        changed: set[str],
        touched: dict[TemporalPattern, _Snapshot],
        verdict_store: VerdictStore,
    ) -> None:
        """Advance every candidate k-event group (step 2.2, k >= 3)."""
        state = self.state
        prev_mirror = state.mirror(k - 1)
        if not prev_mirror.phk:
            return
        level = state.level(k)
        filtered_f1 = sorted(prev_mirror.events_in_patterns())
        seen: set[tuple[str, ...]] = set()
        for group_prev in prev_mirror.groups:
            if not prev_mirror.ehk[group_prev].patterns:
                continue
            for event in filtered_f1:
                group = tuple(sorted(group_prev + (event,)))
                if group in seen:
                    continue
                seen.add(group)
                gs = level.get(group)
                if gs is None:
                    gs = level[group] = GroupState(group)
                elif self._extension_group_is_settled(k, gs, changed):
                    continue
                self._advance_extension_group(
                    k, gs, group_prev, event, touched, verdict_store
                )

    def _extension_group_is_settled(
        self, k: int, gs: GroupState, changed: set[str]
    ) -> bool:
        """Can this advance be skipped for an already-evaluated group?

        A group's support only changes when *every* member occurs in a
        new granule (supports are monotone intersections), so a group
        with an unchanged member can only need work through the parent
        channels: new parent patterns (entry.patterns grows), a parent
        rebuild (revision bump), or new candidate triples on its event
        pairs.  All three checks are O(1)-ish; skipping avoids the k-way
        bitset intersection over the full history for the (vast)
        majority of settled groups on every advance.
        """
        if gs.bits is None or all(member in changed for member in gs.group):
            return False
        if not gs.candidate:
            return True  # support unchanged, gate verdict cannot flip
        state = self.state
        entry_prev = state.mirror(k - 1).ehk[gs.parent_group]
        return (
            state.level(k - 1)[gs.parent_group].revision == gs.parent_revision
            and len(entry_prev.patterns) == len(gs.incorporated)
            and not state.triples_affect_group(gs)
        )

    def _advance_extension_group(
        self,
        k: int,
        gs: GroupState,
        enum_parent: tuple[str, ...],
        enum_event: str,
        touched: dict[TemporalPattern, _Snapshot],
        verdict_store: VerdictStore,
    ) -> None:
        """Bring one k-event group's pattern state up to the new horizon."""
        state = self.state
        params = self.params
        mirror = state.mirror(k)
        new_n = len(self.dseq)
        bits = state.events[gs.group[0]].bits
        for member in gs.group[1:]:
            bits &= state.events[member].bits
        bits_changed = bits != gs.bits
        gs.bits = bits
        if not gs.candidate:
            if not is_candidate(bits.bit_count(), params):
                return
            # The group crosses the gate now: fix its extension parent
            # (any candidate parent yields the same pattern set -- every
            # sub-pattern of a candidate pattern is itself a candidate
            # with full assignments) and catch up over the full support.
            gs.candidate = True
            gs.parent_group = enum_parent
            gs.extension_event = self._extension_event(gs.group, enum_parent)
            mirror.add_group(gs.group, state.support_set(bits))
            self._rebuild_extension_group(k, gs, touched, verdict_store)
            return
        if bits_changed:
            mirror.ehk[gs.group].support = state.support_set(bits)
        parent_gs = state.level(k - 1)[gs.parent_group]
        if parent_gs.revision != gs.parent_revision or state.triples_affect_group(gs):
            # Old granules may now admit new patterns/assignments: the
            # incremental premise broke, redo the group batch-style.
            self._rebuild_extension_group(k, gs, touched, verdict_store)
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
            self._extend_group(
                k, gs, entry_prev, fresh, None, touched, verdict_store
            )
            gs.incorporated.update(fresh)
        if tail and previously:
            self._extend_group(
                k, gs, entry_prev, previously, bit_positions(tail), touched,
                verdict_store,
            )
        gs.processed_upto = new_n
        gs.triples_revision = state.triples_revision

    @staticmethod
    def _extension_event(group: tuple[str, ...], parent: tuple[str, ...]) -> str:
        """The one event of ``group`` not accounted for by ``parent``
        (multiset difference -- groups may repeat an event)."""
        remaining = list(parent)
        for event in group:
            if event in remaining:
                remaining.remove(event)
            else:
                return event
        raise MiningError(f"group {group} does not extend parent {parent}")

    def _rebuild_extension_group(
        self,
        k: int,
        gs: GroupState,
        touched: dict[TemporalPattern, _Snapshot],
        verdict_store: VerdictStore,
    ) -> None:
        """Re-extend one group from scratch over its full support."""
        state = self.state
        mirror = state.mirror(k)
        if gs.patterns:
            for pattern, ps in gs.patterns.items():
                if ps.candidate:
                    touched.setdefault(pattern, self._snapshot_view(ps.view))
                    mirror.remove_pattern(pattern)
            gs.patterns = {}
            gs.revision += 1
        gs.incorporated = set()
        parent_gs = state.level(k - 1)[gs.parent_group]
        entry_prev = state.mirror(k - 1).ehk[gs.parent_group]
        self._extend_group(
            k, gs, entry_prev, list(entry_prev.patterns), None, touched,
            verdict_store,
        )
        gs.incorporated = set(entry_prev.patterns)
        gs.parent_revision = parent_gs.revision
        gs.triples_revision = state.triples_revision
        gs.processed_upto = len(self.dseq)

    def _extend_group(
        self,
        k: int,
        gs: GroupState,
        entry_prev,
        parent_patterns: list[TemporalPattern],
        granule_filter: list[int] | None,
        touched: dict[TemporalPattern, _Snapshot],
        verdict_store: VerdictStore,
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
            verdict_store,
            parent_patterns=parent_patterns,
            granule_filter=granule_filter,
        )
        self._merge_outcomes(k, gs, support_out, assignments_out, touched, dedup=True)

    # ------------------------------------------------------------------
    # Shared pattern-state merging and candidacy registration
    # ------------------------------------------------------------------

    def _merge_outcomes(
        self,
        k: int,
        gs: GroupState,
        support_out: dict[TemporalPattern, list[int]],
        assignments_out: dict[TemporalPattern, dict],
        touched: dict[TemporalPattern, _Snapshot],
        dedup: bool,
    ) -> None:
        """Fold one enumeration's outcomes into the group's pattern states.

        Pair enumeration runs over granule sets disjoint from everything
        processed before, so its outcomes append (``dedup=False``).
        Extension outcomes can re-derive an assignment already found
        through a previously incorporated parent pattern, so they merge
        as per-granule sets (``dedup=True``) -- exactly the deduplication
        the batch accumulator performs within one group task.  Nothing
        extends the last level, so its patterns keep supports only,
        merged as granule sets.
        """
        state = self.state
        params = self.params
        mirror = state.mirror(k)
        last_level = k == params.max_pattern_length
        for pattern, new_support in support_out.items():
            ps = gs.patterns.get(pattern)
            if ps is None:
                ps = gs.patterns[pattern] = PatternState()
            new_assignments = assignments_out[pattern]
            if not ps.support:
                ps.support = list(new_support)
                if not last_level:
                    ps.assignments.update(new_assignments)
            elif last_level:
                ps.support = sorted(set(ps.support).union(new_support))
            elif dedup:
                for granule, assignments in new_assignments.items():
                    existing = ps.assignments.get(granule)
                    if existing is None:
                        ps.assignments[granule] = assignments
                    else:
                        ps.assignments[granule] = sorted(
                            set(existing) | set(assignments)
                        )
                ps.support = sorted(ps.assignments)
            else:
                for granule, assignments in new_assignments.items():
                    ps.assignments[granule] = assignments
                ps.support.extend(new_support)
            for granule in new_support:
                ps.bits |= 1 << granule
            if not ps.candidate:
                if is_candidate(len(ps.support), params):
                    ps.candidate = True
                    mirror.add_pattern(
                        pattern, state.support_set(ps.bits), ps.assignments
                    )
                    if k == 2:
                        state.register_triple(pattern.triples[0])
                    touched.setdefault(pattern, self._snapshot_view(ps.view))
            else:
                mirror.phk[pattern] = state.support_set(ps.bits)
                touched.setdefault(pattern, self._snapshot_view(ps.view))

    def _snapshot_view(self, view: SeasonView | None) -> _Snapshot:
        """Pre-advance status of a pattern: (was frequent, last view)."""
        frequent = view is not None and view.n_seasons >= self.params.min_season
        return (frequent, view)

    # ------------------------------------------------------------------
    # Delta + result construction
    # ------------------------------------------------------------------

    def _build_delta(
        self,
        prev_n: int,
        new_n: int,
        touched_events: dict[str, _Snapshot],
        touched_patterns: dict[TemporalPattern, _Snapshot],
        started: float,
    ) -> PatternDelta:
        state = self.state
        delta = PatternDelta(n_granules=new_n, new_granules=new_n - prev_n)
        for event, snapshot in touched_events.items():
            es = state.events[event]
            self._classify(
                single_event_pattern(event), state.event_view(es), snapshot, delta
            )
        for pattern, snapshot in touched_patterns.items():
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
        promote -- the "border" a monitoring dashboard watches.
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
        batch = ESTPM(
            self.dseq, self.params, support_backend=self.support_backend
        ).mine()
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
