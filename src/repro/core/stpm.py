"""E-STPM: the exact Seasonal Temporal Pattern Mining algorithm (Alg. 1).

The miner follows the paper's two mining steps on a temporal sequence
database ``DSEQ``:

* **Step 2.1** -- mine frequent seasonal single events: one scan of DSEQ
  computes every event's support set; events passing the candidate gate
  populate ``HLH1`` with their support and their instance columns
  (:meth:`~repro.transform.sequence_db.TemporalSequenceDatabase.instance_columns`);
  candidates passing the full seasonal check (maxPeriod / minDensity /
  distInterval / minSeason) are frequent.  The candidates' near support
  sets come from one split of the whole level, and each candidate's
  season view is chained from them once.
* **Step 2.2** -- mine frequent seasonal k-event patterns, k >= 2:
  candidate k-event groups come from the Cartesian product
  ``F_{k-1} x FilteredF1`` with support-set intersection; patterns are
  grown by extending the (k-1)-pattern assignments stored in ``GH_{k-1}``
  with instances of the new event, verifying each new relation triple
  against the candidate 2-event patterns (the Iterative Check of
  Sec. IV-D 4.2.2).

Pruning is controlled by :class:`~repro.core.prune.PruningConfig`:
``apriori`` applies the candidate gates of Lemmas 1-2 to events, groups
and patterns, each through
:func:`~repro.core.seasonality.is_season_candidate` -- the season-chain
bound ``C(SUP) >= minSeason``, which is anti-monotone like Eq. (1)'s
maxSeason and never looser than it; ``transitivity`` restricts F1 to
events present in HLH_{k-1} patterns (Lemmas 3-4).  Both are lossless.

Engine architecture
-------------------
Support sets live behind :class:`~repro.core.supportset.SupportSet`
(big-int bitsets), so every group intersection is a C-level ``&`` and
every candidate gate starts with two O(1) checks, Eq. (1)'s size (a
``bit_count()`` on a bitset) and the span from the first to the last
granule; only supports that pass both have their positions walked.  The
per-group work of step 2.2 -- intersect supports,
enumerate instance pairs, grow assignments -- is expressed as *group
tasks* (:func:`mine_pair_task` / :func:`mine_extension_task`, each taking
its level's shared :class:`LevelContext`).  They run in-process one at a
time through :func:`~repro.resilience.policy.run_tasks` (the task loop
the multigrain miner runs its levels through too: retry, quarantine and
resume), and each outcome is registered before the next task runs, so a
level never holds more than one group's outcome at once.  The outcomes
are what a job checkpoint records and a resumed run replays.

The step-2.2 inner loops are the kernels of :mod:`repro.core.array_kernel`
over the columnar instance index (:mod:`repro.core.instance_index`): HLH1's
per ``(event, granule)`` start-sorted start/end columns, a two-pointer join
with bulk Follows zones for pair enumeration, verdict rows shared per
level for the Iterative Check, flyweight-interned triples/patterns, and
compact column-index assignment encodings in ``GH_k`` and in the pickled
:class:`GroupOutcome` payloads.

The optional ``series_filter`` / ``event_filter`` hooks implement A-STPM's
search-space reduction (only mine events of correlated series, or only
the events its event-level screening keeps); plain E-STPM leaves them
``None``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations_with_replacement

from repro.core.array_kernel import (
    array_collect_pair_patterns,
    array_extend_group_patterns,
)
from repro.core.config import MiningParams
from repro.core.hlh import HLH1, Assignment, HLHk
from repro.core.instance_index import VerdictStore, clear_intern_caches
from repro.core.pattern import TemporalPattern, Triple, single_event_pattern
from repro.core.prune import PruningConfig
from repro.core.results import MiningResult, MiningStats, SeasonalPattern
from repro.core.seasonality import (
    compute_seasons,
    is_frequent_seasonal,
    is_season_candidate,
    season_view,
)
from repro.core.supportset import SupportSet
from repro.exceptions import MiningError
from repro.obs import counters as metrics
from repro.obs.trace import span
from repro.resilience.policy import FailedTask, RetryPolicy, run_tasks
from repro.transform.sequence_db import TemporalSequenceDatabase


def series_of(event: str) -> str:
    """The series name of an event key ``series:symbol``."""
    return event.rsplit(":", 1)[0]


# ---------------------------------------------------------------------------
# Group tasks: the pure per-group unit of work
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelContext:
    """State shared by every group task of one HLH level.

    Built once per level and passed to every task of that level; tasks
    themselves are tiny key tuples into these tables.  Tasks only read
    it, except for ``verdict_store``, the level's cache of Iterative
    Check verdict rows, which the extension tasks fill.
    """

    params: MiningParams
    apriori: bool
    hlh1: HLH1
    previous: HLHk | None = None
    candidate_triples: frozenset[Triple] | None = None
    #: The level's verdict rows, shared by all its extension tasks (see
    #: :class:`~repro.core.instance_index.VerdictStore`): every task of
    #: one level has the same ``hlh1``, candidate triples, check flag and
    #: relation config.  Not an init field, so every context (also one
    #: made by ``dataclasses.replace``) starts with a fresh store; it
    #: pickles empty.
    verdict_store: VerdictStore = field(
        default_factory=VerdictStore, init=False, repr=False, compare=False
    )


@dataclass(frozen=True)
class GroupOutcome:
    """What one group task produced.

    ``support is None`` means the group failed the candidate gate and
    contributes nothing to the level.  At the last level
    (``k == max_pattern_length``, k >= 3) the extension kernel returns
    supports only: every ``pattern_assignments`` entry is empty, since
    no later level reads it.
    """

    group: tuple[str, ...]
    support: SupportSet | None
    pattern_support: dict[TemporalPattern, list[int]]
    pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]]


def mine_pair_task(task: tuple[str, str], context: LevelContext) -> GroupOutcome:
    """Mine one candidate 2-event group (step 2.2, k = 2).

    Pure function of ``task`` and its level's :class:`LevelContext`:
    intersects the two event supports, applies the candidate gate, and
    enumerates every related instance pair per common granule.
    """
    event_a, event_b = task
    hlh1 = context.hlh1
    params = context.params
    track = metrics.metrics_enabled()
    support = hlh1.support_of(event_a) & hlh1.support_of(event_b)
    if track:
        metrics.inc("mine.groups.pair")
        metrics.inc("mine.support.intersections")
    if context.apriori and not is_season_candidate(support, params):
        metrics.inc("mine.groups.gate_rejected")
        return GroupOutcome((event_a, event_b), None, {}, {})
    pattern_support: dict[TemporalPattern, list[int]] = {}
    pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]] = {}
    array_collect_pair_patterns(
        hlh1, event_a, event_b, support, params.relation,
        pattern_support, pattern_assignments,
    )
    if track:
        # LazyAssignments reports its length without materializing, so
        # this total is O(#buckets), not O(#pairs).
        metrics.inc(
            "mine.pairs.recorded",
            sum(
                len(bucket)
                for by_granule in pattern_assignments.values()
                for bucket in by_granule.values()
            ),
        )
    return GroupOutcome((event_a, event_b), support, pattern_support, pattern_assignments)


def mine_extension_task(
    task: tuple[tuple[str, ...], str], context: LevelContext
) -> GroupOutcome:
    """Mine one candidate k-event group (step 2.2, k >= 3).

    Pure function of ``task`` and its level's :class:`LevelContext`
    (except for the verdict rows it adds to the level's store):
    intersects the parent group's support with the new event's, applies
    the candidate gate, and extends the parent's pattern assignments.
    """
    group_prev, event = task
    entry_prev = context.previous.ehk[group_prev]
    group = tuple(sorted(group_prev + (event,)))
    track = metrics.metrics_enabled()
    support = entry_prev.support & context.hlh1.support_of(event)
    if track:
        metrics.inc("mine.groups.extension")
        metrics.inc("mine.support.intersections")
    if context.apriori and not is_season_candidate(support, context.params):
        metrics.inc("mine.groups.gate_rejected")
        return GroupOutcome(group, None, {}, {})
    pattern_support, pattern_assignments = array_extend_group_patterns(
        context.hlh1,
        context.previous,
        entry_prev,
        event,
        context.candidate_triples,
        context.params,
        context.apriori,
        context.verdict_store,
    )
    if track:
        metrics.inc(
            "mine.extensions.recorded",
            sum(
                len(bucket)
                for by_granule in pattern_assignments.values()
                for bucket in by_granule.values()
            ),
        )
    return GroupOutcome(group, support, pattern_support, pattern_assignments)


# ---------------------------------------------------------------------------
# The miner
# ---------------------------------------------------------------------------


@dataclass
class ESTPM:
    """The exact seasonal temporal pattern miner.

    Parameters
    ----------
    dseq:
        The temporal sequence database to mine.
    params:
        The four seasonal thresholds plus relation settings.
    pruning:
        Which pruning techniques to apply (default: both).
    series_filter:
        If set, only events of these series are mined (A-STPM hook).
    event_filter:
        If set, only these event keys are mined (the event-level pruning
        extension of A-STPM).
    retry:
        The :class:`~repro.resilience.policy.RetryPolicy` each group task
        runs under: a task that raises is retried with deterministic
        backoff and quarantined once it has failed ``max_attempts``
        times (``None``: the default policy, 3 attempts).
    strict:
        ``True`` (default): a group task that failed all its retry
        attempts aborts the run with :class:`MiningError` -- current
        exact-mining semantics.  ``False``: quarantined tasks are
        collected into ``MiningResult.failures`` and the run returns a
        knowingly partial result (``results_equivalent`` treats it as
        inequivalent to everything).
    checkpoint_path:
        If set, completed step-2.2 group outcomes are checkpointed to
        this file (atomic, versioned; see
        :class:`~repro.io.job_checkpoint.JobCheckpoint`) and a rerun
        pointed at the same path resumes, skipping the finished groups
        (``freqstpfts mine --resume``).  The checkpoint is fingerprinted
        against the job's parameters, pruning and dataset shape, so it
        cannot be replayed into a different job.
    """

    dseq: TemporalSequenceDatabase
    params: MiningParams
    pruning: PruningConfig = field(default_factory=PruningConfig.all)
    series_filter: set[str] | None = None
    event_filter: set[str] | None = None
    retry: RetryPolicy | None = None
    strict: bool = True
    checkpoint_path: str | None = None

    def mine(self) -> MiningResult:
        """Run the full mining process and return all frequent seasonal
        patterns of length 1..max_pattern_length.

        The job ends by clearing this process's flyweight pattern/triple
        caches (:func:`~repro.core.instance_index.clear_intern_caches`):
        every interned object a live job uses is referenced by its HLH
        structures and results anyway, so the caches would only pin the
        patterns of finished jobs in a process that runs many.
        """
        try:
            return self._mine()
        finally:
            clear_intern_caches()

    def _mine(self) -> MiningResult:
        started = time.perf_counter()
        stats = MiningStats(n_granules=len(self.dseq))
        patterns: list[SeasonalPattern] = []
        failures: list[FailedTask] = []
        checkpoint = self._open_checkpoint()

        with span("estpm/mine", granules=len(self.dseq)) as mine_span:
            with span("estpm/step2.1") as step21:
                hlh1 = self._mine_single_events(patterns, stats)
                step21.set(
                    candidates=len(hlh1),
                    frequent=stats.n_frequent.get(1, 0),
                )
            levels: dict[int, HLHk] = {}
            if self.params.max_pattern_length >= 2:
                with span("estpm/step2.2/pairs", k=2) as step22:
                    hlh2 = self._mine_two_event_patterns(
                        hlh1, patterns, stats, checkpoint, failures,
                    )
                    step22.set(
                        groups=len(hlh2.groups), patterns=len(hlh2.phk)
                    )
                levels[2] = hlh2
                candidate_triples = frozenset(p.triples[0] for p in hlh2.phk)
                previous = hlh2
                k = 3
                while k <= self.params.max_pattern_length and previous.phk:
                    with span("estpm/step2.2/extend", k=k) as extend_span:
                        current = self._mine_k_event_patterns(
                            hlh1, previous, candidate_triples, k,
                            patterns, stats, checkpoint, failures,
                        )
                        extend_span.set(
                            groups=len(current.groups),
                            patterns=len(current.phk),
                        )
                    levels[k] = current
                    previous = current
                    k += 1
            mine_span.set(patterns=len(patterns), failures=len(failures))

        if checkpoint is not None:
            checkpoint.flush()
        stats.mining_seconds = time.perf_counter() - started
        if failures and self.strict:
            raise MiningError(
                f"{len(failures)} group task(s) failed after retries: "
                + "; ".join(f.describe() for f in failures[:5])
                + ("; ..." if len(failures) > 5 else "")
                + " (run with strict=False to keep the partial result)"
            )
        return MiningResult(patterns=patterns, stats=stats, failures=failures)

    def _open_checkpoint(self):
        """The job-progress checkpoint, or ``None`` when not configured.

        The fingerprint binds the checkpoint to this exact job: the
        mining parameters, the pruning variant (a gate-rejected group
        records no support, and ``apriori=False`` also turns off the
        Iterative Check, so the recorded outcomes differ per variant) and
        the dataset shape.  The retry policy is left out: it changes
        which tasks fail, never what a completed task recorded.
        """
        if self.checkpoint_path is None:
            return None
        # Imported lazily: repro.io's package init reaches (via the
        # archive readers) back into this module.
        from repro.io.job_checkpoint import JobCheckpoint

        return JobCheckpoint(
            self.checkpoint_path,
            {
                "job": "estpm",
                "params": repr(self.params),
                "pruning": self.pruning.label,
                "granules": len(self.dseq),
            },
        )

    # ------------------------------------------------------------------
    # Step 2.1: single events
    # ------------------------------------------------------------------

    def _mine_single_events(
        self, patterns: list[SeasonalPattern], stats: MiningStats
    ) -> HLH1:
        hlh1 = HLH1()
        params = self.params
        # Instance columns exist solely for step 2.2's pair / extension
        # enumeration; a single-event run (the multigrain
        # event-seasonality workload) never reads them.
        need_instances = params.max_pattern_length >= 2
        with span("estpm/step2.1/hlh1_scan") as scan_span:
            event_supports = sorted(self.dseq.event_support().items())
            scan_span.set(events=len(event_supports))
        admitted: list[tuple[str, SupportSet]] = []
        for event, support in event_supports:
            if self.series_filter is not None and series_of(event) not in self.series_filter:
                stats.n_events_pruned += 1
                continue
            if self.event_filter is not None and event not in self.event_filter:
                stats.n_events_pruned += 1
                continue
            stats.n_events_scanned += 1
            if self.pruning.apriori and not is_season_candidate(support, params):
                continue
            admitted.append((event, support))
        # The view is the frequency check too, so a frequent support is
        # walked once, not by the early-exit counter and again for it.
        near_sets = self.dseq.near_support_sets(
            params.max_period, [event for event, _ in admitted]
        )
        for event, support in admitted:
            view = season_view(support.positions(), near_sets[event], params)
            if view.n_seasons >= params.min_season:
                patterns.append(SeasonalPattern(single_event_pattern(event), view))
            hlh1.add_event(
                event,
                support,
                self.dseq.instance_columns(event) if need_instances else {},
            )
        stats.n_candidate_events = len(hlh1)
        stats.bump(stats.n_frequent, 1, sum(1 for p in patterns if p.size == 1))
        return hlh1

    # ------------------------------------------------------------------
    # Step 2.2, k = 2
    # ------------------------------------------------------------------

    def _mine_two_event_patterns(
        self,
        hlh1: HLH1,
        patterns: list[SeasonalPattern],
        stats: MiningStats,
        checkpoint,
        failures: list[FailedTask],
    ) -> HLHk:
        hlh2 = HLHk(k=2)
        f1 = sorted(hlh1.candidates)
        tasks: list[tuple[str, str]] = []
        for event_a, event_b in combinations_with_replacement(f1, 2):
            stats.bump(stats.n_groups_generated, 2)
            tasks.append((event_a, event_b))
        context = LevelContext(
            params=self.params, apriori=self.pruning.apriori, hlh1=hlh1
        )
        outcomes = run_tasks(
            mine_pair_task, tasks, context, "k2", checkpoint, failures,
            self.retry,
        )
        for outcome in outcomes:
            if outcome.support is None:
                continue
            hlh2.add_group(outcome.group, outcome.support)
            stats.bump(stats.n_candidate_groups, 2)
            self._register_patterns(
                hlh2, outcome.pattern_support,
                outcome.pattern_assignments, patterns, stats,
            )
        return hlh2

    # ------------------------------------------------------------------
    # Step 2.2, k >= 3
    # ------------------------------------------------------------------

    def _mine_k_event_patterns(
        self,
        hlh1: HLH1,
        previous: HLHk,
        candidate_triples: frozenset[Triple],
        k: int,
        patterns: list[SeasonalPattern],
        stats: MiningStats,
        checkpoint,
        failures: list[FailedTask],
    ) -> HLHk:
        hlhk = HLHk(k=k)
        if self.pruning.transitivity:
            filtered_f1 = sorted(previous.events_in_patterns())
        else:
            filtered_f1 = sorted(hlh1.candidates)
        seen_groups: set[tuple[str, ...]] = set()
        tasks: list[tuple[tuple[str, ...], str]] = []
        for group_prev in previous.groups:
            if not previous.ehk[group_prev].patterns:
                continue
            for event in filtered_f1:
                group = tuple(sorted(group_prev + (event,)))
                if group in seen_groups:
                    continue
                seen_groups.add(group)
                stats.bump(stats.n_groups_generated, k)
                tasks.append((group_prev, event))
        context = LevelContext(
            params=self.params,
            apriori=self.pruning.apriori,
            hlh1=hlh1,
            previous=previous,
            candidate_triples=candidate_triples,
        )
        outcomes = run_tasks(
            mine_extension_task, tasks, context, f"k{k}", checkpoint,
            failures, self.retry,
        )
        for outcome in outcomes:
            if outcome.support is None:
                continue
            hlhk.add_group(outcome.group, outcome.support)
            stats.bump(stats.n_candidate_groups, k)
            self._register_patterns(
                hlhk, outcome.pattern_support,
                outcome.pattern_assignments, patterns, stats,
            )
        return hlhk

    # ------------------------------------------------------------------
    # Shared registration of candidate + frequent patterns
    # ------------------------------------------------------------------

    def _register_patterns(
        self,
        hlhk: HLHk,
        pattern_support: dict[TemporalPattern, list[int]],
        pattern_assignments: dict[TemporalPattern, dict[int, list[Assignment]]],
        patterns: list[SeasonalPattern],
        stats: MiningStats,
    ) -> None:
        params = self.params
        for pattern, support in pattern_support.items():
            if self.pruning.apriori and not is_season_candidate(support, params):
                metrics.inc("mine.patterns.gate_rejected")
                continue
            metrics.inc("mine.patterns.candidates")
            hlhk.add_pattern(
                pattern,
                SupportSet.from_positions(support),
                pattern_assignments[pattern],
            )
            stats.bump(stats.n_candidate_patterns, hlhk.k)
            # Gate with the early-exit chain counter (no view allocation
            # for the infrequent majority of candidates).
            if is_frequent_seasonal(support, params):
                patterns.append(
                    SeasonalPattern(pattern, compute_seasons(support, params))
                )
                stats.bump(stats.n_frequent, hlhk.k)
                metrics.inc("mine.patterns.frequent")


def mine_seasonal_patterns(
    dseq: TemporalSequenceDatabase,
    params: MiningParams,
    pruning: PruningConfig | None = None,
) -> MiningResult:
    """Convenience wrapper: run E-STPM with the given (or full) pruning."""
    if len(dseq) == 0:
        raise MiningError("cannot mine an empty DSEQ")
    miner = ESTPM(dseq, params, pruning or PruningConfig.all())
    return miner.mine()
