"""The hierarchical multi-granularity mining engine.

:class:`HierarchicalMiner` mines an entire granularity hierarchy as one
job instead of N independent ones:

1. the finest requested level is sequence-mapped from the symbolic
   database once and its event supports computed with the usual single
   DSEQ scan;
2. every coarser level whose ratio is a multiple of the finest is
   derived with
   :meth:`~repro.transform.sequence_db.TemporalSequenceDatabase.coarsen`:
   its event supports are the fine supports *folded* (fine position
   ``p`` to coarse ``(p - 1) // f + 1``, one vectorised pass over the
   level's flat position array -- exact for events), and its granule
   rows *merge* the fine rows only when first read, never re-walking the
   raw symbol stream;
3. the levels run one after another as independent level tasks
   (:func:`mine_level_task`, through the same retry and resume machinery
   as E-STPM's group tasks) and are mined with E-STPM or A-STPM.  Each
   level's step 2.1 is its only candidate gate: it cuts instance
   columns (and so reads rows) only for the events the gate admits, so
   a single-event level (``max_pattern_length == 1``) never builds a
   row and any other level builds its rows once.

Each level's :class:`~repro.core.results.MiningResult` is equivalent to
mining that level standalone (same patterns, same supports / near sets /
seasons) -- the parity tests assert this on all seed datasets.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from repro.core.approximate import ASTPM
from repro.core.config import MiningParams
from repro.core.instance_index import clear_intern_caches
from repro.core.prune import PruningConfig
from repro.core.stpm import ESTPM
from repro.exceptions import ConfigError, MiningError
from repro.granularity.hierarchy import GranularityHierarchy
from repro.multigrain.result import GranularityLevel, MultiGranularityResult
from repro.obs import counters as metrics
from repro.obs.trace import span
from repro.resilience.policy import FailedTask, RetryPolicy, run_task
from repro.symbolic.database import SymbolicDatabase
from repro.transform.sequence_db import (
    TemporalSequenceDatabase,
    build_sequence_database,
)

MINER_EXACT = "exact"
MINER_APPROXIMATE = "approximate"
MINER_KINDS = (MINER_EXACT, MINER_APPROXIMATE)


def resolve_level_params(
    ratio: int,
    n_sequences: int,
    max_period_pct: float,
    min_density_pct: float,
    dist_interval: tuple[int, int],
    min_season: int,
    max_pattern_length: int = 3,
) -> MiningParams:
    """Resolve the shared hierarchy configuration against one level.

    ``dist_interval`` is expressed in *fine* granules; each level converts
    it to its own granule unit.  The lower bound floors (a season gap that
    was legal at the fine level must stay legal) and the upper bound
    *ceils*: a fine-level distance of ``d`` spans up to ``ceil(d/ratio)``
    coarse granules, so flooring it would silently reject season
    distances that were valid at the fine level.
    """
    dist_min = dist_interval[0] // ratio
    dist_max = math.ceil(dist_interval[1] / ratio)
    return MiningParams.from_percentages(
        n_granules=n_sequences,
        max_period_pct=max_period_pct,
        min_density_pct=min_density_pct,
        dist_interval=(dist_min, max(dist_min, dist_max)),
        min_season=min_season,
        max_pattern_length=max_pattern_length,
    )


# ---------------------------------------------------------------------------
# Level tasks: the pure per-level unit of work
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LevelJob:
    """Everything one level task needs beyond the shared context.

    ``dseq is None`` means the task rebuilds the level from the symbolic
    database (a ratio the fold cannot reach).
    """

    ratio: int
    n_sequences: int
    params: MiningParams
    dseq: TemporalSequenceDatabase | None
    derived_from: int | None


@dataclass(frozen=True)
class HierarchicalContext:
    """Read-only state shared by every level task of one hierarchical run."""

    jobs: tuple[LevelJob, ...]
    dsyb: SymbolicDatabase
    pruning: PruningConfig
    miner: str
    event_level: bool


def mine_level_task(index: int, context: HierarchicalContext) -> GranularityLevel:
    """Mine one hierarchy level (pure function of ``index`` and the
    hierarchy's shared context)."""
    job = context.jobs[index]
    started = time.perf_counter()
    with span("multigrain/level", ratio=job.ratio, miner=context.miner):
        metrics.inc("multigrain.levels_mined")
        dseq = job.dseq
        if dseq is None:
            dseq = build_sequence_database(context.dsyb, job.ratio)
        if context.miner == MINER_APPROXIMATE:
            result = ASTPM(
                context.dsyb,
                job.ratio,
                job.params,
                pruning=context.pruning,
                dseq=dseq,
                event_level=context.event_level,
            ).mine()
        else:
            result = ESTPM(dseq, job.params, context.pruning).mine()
    return GranularityLevel(
        ratio=job.ratio,
        n_sequences=job.n_sequences,
        params=job.params,
        result=result,
        derived_from=job.derived_from,
        n_granules_skipped=dseq.unbuilt_rows(),
        seconds=time.perf_counter() - started,
    )


# ---------------------------------------------------------------------------
# The hierarchical miner
# ---------------------------------------------------------------------------


@dataclass
class HierarchicalMiner:
    """Mine one symbolic database at every level of a hierarchy.

    Parameters
    ----------
    dsyb:
        The symbolic database at the finest granularity G.
    ratios:
        Sequence-mapping ratios, one per level (each must leave at least
        ``min_sequences`` complete sequences).  The smallest ratio is the
        *base* level; coarser ratios that are multiples of it are
        fold-derived, others fall back to a rebuild from DSYB.
    max_period_pct / min_density_pct:
        Table VI style percentage thresholds, re-resolved per level.
    dist_interval:
        Season distance interval *in fine granules*; converted per level
        by :func:`resolve_level_params` (floor lower bound, ceil upper).
    min_season / max_pattern_length / pruning:
        As in :class:`~repro.core.stpm.ESTPM`.
    miner:
        ``"exact"`` (E-STPM) or ``"approximate"`` (A-STPM with MI
        screening; ``event_level=True`` adds its event-level extension).
    retry:
        The :class:`~repro.resilience.policy.RetryPolicy` each level task
        runs under (``None``: the default policy); the miners inside a
        level keep the default policy for their group tasks.
    strict:
        ``True`` (default): a level task that failed all its retry
        attempts aborts the run with :class:`MiningError`.  ``False``:
        quarantined levels are collected into
        ``MultiGranularityResult.failures`` and the hierarchy returns
        without them.
    checkpoint_path:
        If set, each completed level's outcome is checkpointed to this
        file (atomic, versioned, keyed by the level's *ratio* -- stable
        across reruns) and a rerun pointed at the same path resumes,
        re-mining only the unfinished levels (``freqstpfts multigrain
        --resume``).  The checkpoint is fingerprinted against the
        hierarchy's thresholds, miner and pruning, so it cannot be
        replayed into a different job.
    """

    dsyb: SymbolicDatabase
    ratios: list[int]
    max_period_pct: float = 0.4
    min_density_pct: float = 0.5
    dist_interval: tuple[int, int] = (0, 10_000)
    min_season: int = 2
    max_pattern_length: int = 3
    pruning: PruningConfig = field(default_factory=PruningConfig.all)
    min_sequences: int = 4
    miner: str = MINER_EXACT
    event_level: bool = False
    retry: RetryPolicy | None = None
    strict: bool = True
    checkpoint_path: str | None = None

    def __post_init__(self) -> None:
        if not self.ratios:
            raise ConfigError("multi-granularity mining needs at least one ratio")
        if sorted(set(self.ratios)) != sorted(self.ratios):
            raise ConfigError(f"duplicate ratios in {self.ratios}")
        if any(ratio < 1 for ratio in self.ratios):
            raise ConfigError(f"ratios must be >= 1, got {self.ratios}")
        if self.miner not in MINER_KINDS:
            raise ConfigError(
                f"unknown miner kind {self.miner!r}; choose from {MINER_KINDS}"
            )

    @classmethod
    def from_hierarchy(
        cls,
        dsyb: SymbolicDatabase,
        hierarchy: GranularityHierarchy,
        **settings,
    ) -> "HierarchicalMiner":
        """Mine every level of a :class:`GranularityHierarchy`.

        The hierarchy's finest level is taken to be the granularity of
        the DSYB itself, so level ``i`` mines at sequence-mapping ratio
        ``hierarchy.ratio(0, i)`` (level 0 at ratio 1: one symbol per
        sequence).
        """
        ratios = [hierarchy.ratio(0, index) for index in range(len(hierarchy))]
        return cls(dsyb, ratios=ratios, **settings)

    def params_for(self, ratio: int, n_sequences: int) -> MiningParams:
        """Resolve the shared configuration against one level."""
        return resolve_level_params(
            ratio=ratio,
            n_sequences=n_sequences,
            max_period_pct=self.max_period_pct,
            min_density_pct=self.min_density_pct,
            dist_interval=self.dist_interval,
            min_season=self.min_season,
            max_pattern_length=self.max_pattern_length,
        )

    def _validated_levels(self) -> list[tuple[int, int]]:
        """Ascending ``(ratio, n_sequences)`` pairs, size-checked."""
        levels: list[tuple[int, int]] = []
        for ratio in sorted(self.ratios):
            n_sequences = self.dsyb.n_instants // ratio
            if n_sequences < self.min_sequences:
                raise ConfigError(
                    f"ratio {ratio} leaves only {n_sequences} sequences "
                    f"(< {self.min_sequences}); drop it or supply more data"
                )
            levels.append((ratio, n_sequences))
        return levels

    def _build_jobs(self) -> list[LevelJob]:
        """Plan one job per level, deriving every coarse level whose ratio
        is a multiple of the base ratio from the base level."""
        levels = self._validated_levels()
        jobs: list[LevelJob] = []
        base_ratio, base_n = levels[0]
        base_dseq = build_sequence_database(self.dsyb, base_ratio)
        jobs.append(
            LevelJob(
                ratio=base_ratio,
                n_sequences=base_n,
                params=self.params_for(base_ratio, base_n),
                dseq=base_dseq,
                derived_from=None,
            )
        )
        for ratio, n_sequences in levels[1:]:
            params = self.params_for(ratio, n_sequences)
            if ratio % base_ratio != 0:
                # Not reachable by an integer fold; rebuild this level.
                jobs.append(
                    LevelJob(
                        ratio=ratio,
                        n_sequences=n_sequences,
                        params=params,
                        dseq=None,
                        derived_from=None,
                    )
                )
                continue
            jobs.append(
                LevelJob(
                    ratio=ratio,
                    n_sequences=n_sequences,
                    params=params,
                    dseq=base_dseq.coarsen(ratio // base_ratio),
                    derived_from=base_ratio,
                )
            )
        return jobs

    def _open_checkpoint(self):
        """The per-level job checkpoint, or ``None`` when not configured.

        The fingerprint binds the checkpoint to the full hierarchy
        configuration -- thresholds, miner and pruning variant
        (pruning changes the candidate counts each level records) -- and
        the symbolic database's extent, so a resume cannot silently mix
        levels mined under different settings.
        """
        if self.checkpoint_path is None:
            return None
        # Imported lazily: repro.io's package init reaches (via the
        # archive readers) back into this package.
        from repro.io.job_checkpoint import JobCheckpoint

        return JobCheckpoint(
            self.checkpoint_path,
            {
                "job": "multigrain",
                "ratios": sorted(self.ratios),
                "miner": self.miner,
                "max_period_pct": self.max_period_pct,
                "min_density_pct": self.min_density_pct,
                "dist_interval": list(self.dist_interval),
                "min_season": self.min_season,
                "max_pattern_length": self.max_pattern_length,
                "event_level": self.event_level,
                "pruning": self.pruning.label,
                "n_instants": self.dsyb.n_instants,
            },
        )

    def mine(self) -> MultiGranularityResult:
        """Mine every level and align the results across the hierarchy.

        The level tasks run in-process, one after another, and each
        level is recorded before the next one is mined.  With
        ``checkpoint_path`` set, levels already present in the
        checkpoint are not re-mined (their recorded outcome is used,
        counted in ``resume.tasks_skipped``) and every freshly completed
        level is recorded, so a killed run resumes at the level it died
        on.  A level task that fails all its retry attempts is
        quarantined (strict runs raise; see ``strict``).  Like
        :meth:`ESTPM.mine <repro.core.stpm.ESTPM.mine>`, the job ends by
        clearing the process's flyweight pattern/triple caches.
        """
        try:
            return self._mine()
        finally:
            clear_intern_caches()

    def _mine(self) -> MultiGranularityResult:
        checkpoint = self._open_checkpoint()
        failures: list = []
        with span(
            "multigrain/mine", miner=self.miner, levels=len(self.ratios)
        ) as mine_span:
            with span("multigrain/build_jobs"):
                jobs = self._build_jobs()
            context = HierarchicalContext(
                jobs=tuple(jobs),
                dsyb=self.dsyb,
                pruning=self.pruning,
                miner=self.miner,
                event_level=self.event_level,
            )
            # Checkpoint keys are the level *ratios*: stable across
            # reruns, unlike task list positions, which renumber once
            # completed levels are skipped.
            keys = [f"ratio:{job.ratio}" for job in jobs]
            if checkpoint is None:
                pending = list(range(len(jobs)))
            else:
                pending = [
                    index for index, key in enumerate(keys)
                    if key not in checkpoint
                ]
                skipped = len(jobs) - len(pending)
                if skipped:
                    metrics.inc("resume.tasks_skipped", skipped)
            levels: list[GranularityLevel] = [
                checkpoint.get(keys[index])
                for index in range(len(jobs))
                if index not in set(pending)
            ]
            for position, index in enumerate(pending):
                outcome = run_task(
                    mine_level_task, index, context, position, self.retry
                )
                if isinstance(outcome, FailedTask):
                    failures.append(outcome)
                    continue
                levels.append(outcome)
                if checkpoint is not None:
                    checkpoint.record(keys[index], outcome)
            if checkpoint is not None:
                checkpoint.flush()
            mine_span.set(
                patterns=sum(len(level.result) for level in levels),
                failures=len(failures),
            )
        if failures and self.strict:
            raise MiningError(
                f"{len(failures)} level task(s) failed after retries: "
                + "; ".join(f.describe() for f in failures)
                + " (run with strict=False to keep the partial hierarchy, "
                "or --resume the checkpoint)"
            )
        return MultiGranularityResult(levels=levels, failures=failures)
