"""Cross-level alignment of multi-granularity mining results.

Pattern identity (the event tuple plus relation triples) is granularity
independent -- ``WindSpeed:High contains WindPower:High`` means the same
thing whether the sequences are hourly or daily, only the seasonal
evidence differs.  :class:`MultiGranularityResult` exploits that to
answer the cross-granularity questions the per-level loop never could:
which patterns persist across every level, which exist only at the
finest, and how a pattern's season count changes as the data coarsens.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import MiningParams
from repro.core.pattern import TemporalPattern
from repro.core.results import MiningResult, SeasonalPattern
from repro.exceptions import ConfigError
from repro.resilience.policy import FailedTask


@dataclass(frozen=True)
class GranularityLevel:
    """The outcome of mining one hierarchy level.

    ``derived_from`` names the ratio whose DSEQ/supports this level was
    fold-derived from (``None``: built directly from the symbolic
    database).  ``n_granules_skipped`` counts the level's granule rows
    that mining never built: all of them when nothing read a row (a
    single-event run, or a numpy-built level whose instance columns come
    from its run tables), 0 once step 2.1 cut a column from the rows.
    The events step 2.1's gate rejected number
    ``result.stats.n_events_scanned - result.stats.n_candidate_events``.
    ``seconds`` is the level task's wall clock: deriving the level (the
    fold, or a rebuild from the symbolic database) and mining it; the
    base level's build is not in it.
    """

    ratio: int
    n_sequences: int
    params: MiningParams
    result: MiningResult
    derived_from: int | None = None
    n_granules_skipped: int = 0
    seconds: float = 0.0


@dataclass
class MultiGranularityResult:
    """All levels of one hierarchical mining run, finest first.

    ``failures`` lists the quarantined level tasks of a non-strict run
    (see :class:`~repro.core.results.MiningResult.failures`); a strict
    hierarchical run raises instead, so a populated list always marks a
    knowingly partial hierarchy.
    """

    levels: list[GranularityLevel]
    failures: list[FailedTask] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.levels = sorted(self.levels, key=lambda level: level.ratio)

    @property
    def complete(self) -> bool:
        """True when no level task was quarantined."""
        return not self.failures

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self):
        return iter(self.levels)

    @property
    def ratios(self) -> list[int]:
        """The mined sequence-mapping ratios, ascending."""
        return [level.ratio for level in self.levels]

    @property
    def finest(self) -> GranularityLevel:
        """The finest mined level."""
        return self.levels[0]

    @property
    def total_seconds(self) -> float:
        """Summed per-level mining wall clock."""
        return sum(level.seconds for level in self.levels)

    def level(self, ratio: int) -> GranularityLevel:
        """The level mined at ``ratio``."""
        for candidate in self.levels:
            if candidate.ratio == ratio:
                return candidate
        raise ConfigError(
            f"no level mined at ratio {ratio}; available: {self.ratios}"
        )

    # ------------------------------------------------------------------
    # Cross-level pattern alignment
    # ------------------------------------------------------------------

    def persistence(self) -> dict[TemporalPattern, tuple[int, ...]]:
        """Every frequent pattern -> the ratios at which it is frequent.

        The cross-granularity fingerprint of the run: patterns mapping to
        every ratio are granularity robust, patterns mapping to one are
        granularity artifacts.
        """
        table: dict[TemporalPattern, list[int]] = {}
        for level in self.levels:
            for sp in level.result.patterns:
                table.setdefault(sp.pattern, []).append(level.ratio)
        return {pattern: tuple(ratios) for pattern, ratios in table.items()}

    def persistent_patterns(self, *ratios: int) -> list[TemporalPattern]:
        """Patterns frequent at *all* the given ratios (default: every level).

        This answers "which patterns persist from hourly to daily?":
        ``persistent_patterns(1, 24)``.
        """
        required = set(ratios) if ratios else set(self.ratios)
        unknown = required - set(self.ratios)
        if unknown:
            raise ConfigError(
                f"ratios {sorted(unknown)} were not mined; available: {self.ratios}"
            )
        return sorted(
            (
                pattern
                for pattern, present in self.persistence().items()
                if required <= set(present)
            ),
            key=lambda pattern: (pattern.size, pattern.events, pattern.triples),
        )

    def exclusive_patterns(self, ratio: int) -> list[TemporalPattern]:
        """Patterns frequent at ``ratio`` and nowhere else."""
        self.level(ratio)
        return sorted(
            (
                pattern
                for pattern, present in self.persistence().items()
                if present == (ratio,)
            ),
            key=lambda pattern: (pattern.size, pattern.events, pattern.triples),
        )

    def seasonal_trajectory(
        self, pattern: TemporalPattern
    ) -> dict[int, SeasonalPattern]:
        """One pattern's seasonal evidence per ratio where it is frequent."""
        trajectory: dict[int, SeasonalPattern] = {}
        for level in self.levels:
            for sp in level.result.patterns:
                if sp.pattern == pattern:
                    trajectory[level.ratio] = sp
                    break
        return trajectory

    def describe(self, limit: int = 10) -> str:
        """Readable multi-level report: per-level counts + persistence."""
        lines = []
        for level in self.levels:
            origin = (
                f"fold-derived from ratio {level.derived_from}"
                if level.derived_from is not None
                else "built from DSYB"
            )
            lines.append(
                f"ratio {level.ratio:4d}: {level.n_sequences:5d} sequences, "
                f"{len(level.result):4d} frequent patterns "
                f"({origin}, {level.seconds:.2f}s)"
            )
        persistent = self.persistent_patterns()
        lines.append(
            f"{len(persistent)} patterns persist across all "
            f"{len(self.levels)} levels"
        )
        for pattern in persistent[:limit]:
            seasons = {
                ratio: sp.n_seasons
                for ratio, sp in self.seasonal_trajectory(pattern).items()
            }
            rendered = ", ".join(f"x{r}:{n}" for r, n in sorted(seasons.items()))
            lines.append(f"  {pattern.describe():55s} seasons {rendered}")
        if len(persistent) > limit:
            lines.append(f"  ... and {len(persistent) - limit} more")
        return "\n".join(lines)
