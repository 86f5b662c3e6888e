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
3. the levels run one after another as level tasks, through the task
   loop E-STPM runs its group tasks through
   (:func:`~repro.resilience.policy.run_tasks`: retry, quarantine and
   resume).  Each task derives its level when its turn comes and mines
   it with E-STPM or A-STPM, so no coarse level's database outlives its
   task.  Each level's step 2.1 is its only candidate gate: it cuts
   instance columns (and so reads rows) only for the events the gate
   admits, so a single-event level (``max_pattern_length == 1``) never
   builds a row and any other level builds its rows once.

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
from repro.resilience.policy import RetryPolicy, run_tasks
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

    def _validated_ratios(self) -> list[int]:
        """The ratios ascending, each checked to leave enough sequences."""
        ratios = sorted(self.ratios)
        for ratio in ratios:
            n_sequences = self.dsyb.n_instants // ratio
            if n_sequences < self.min_sequences:
                raise ConfigError(
                    f"ratio {ratio} leaves only {n_sequences} sequences "
                    f"(< {self.min_sequences}); drop it or supply more data"
                )
        return ratios

    def _mine_level(
        self, ratio: int, base: TemporalSequenceDatabase
    ) -> GranularityLevel:
        """Derive and mine one level (the level task).

        The base level is ``base`` itself; a ratio that is a multiple of
        the base ratio is folded from it, and any other ratio is rebuilt
        from the symbolic database.  Nothing but this call holds the
        level's database, so it is freed as soon as the level is mined.
        """
        started = time.perf_counter()
        n_sequences = self.dsyb.n_instants // ratio
        params = self.params_for(ratio, n_sequences)
        with span("multigrain/level", ratio=ratio, miner=self.miner):
            metrics.inc("multigrain.levels_mined")
            derived_from = None
            if ratio == base.ratio:
                dseq = base
            elif ratio % base.ratio == 0:
                dseq = base.coarsen(ratio // base.ratio)
                derived_from = base.ratio
            else:
                # Not reachable by an integer fold; rebuild this level.
                dseq = build_sequence_database(self.dsyb, ratio)
            if self.miner == MINER_APPROXIMATE:
                result = ASTPM(
                    self.dsyb,
                    ratio,
                    params,
                    pruning=self.pruning,
                    dseq=dseq,
                    event_level=self.event_level,
                ).mine()
            else:
                result = ESTPM(dseq, params, self.pruning).mine()
        return GranularityLevel(
            ratio=ratio,
            n_sequences=n_sequences,
            params=params,
            result=result,
            derived_from=derived_from,
            n_granules_skipped=dseq.unbuilt_rows(),
            seconds=time.perf_counter() - started,
        )

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

        The level tasks run in-process, one after another: each derives
        its level's database when its turn comes (:meth:`_mine_level`),
        mines it, and is recorded before the next level is derived.  With
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
            ratios = self._validated_ratios()
            base = build_sequence_database(self.dsyb, ratios[0])
            # Checkpoint keys are the level *ratios* (``ratio:<r>``):
            # stable across reruns, unlike task list positions, which
            # renumber once completed levels are skipped.
            levels = list(
                run_tasks(
                    self._mine_level, ratios, base, "ratio",
                    checkpoint, failures, self.retry,
                )
            )
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
