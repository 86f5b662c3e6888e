"""A-STPM: the approximate miner using mutual information (paper Alg. 2).

A-STPM prunes *unpromising time series* before mining:

1. For every unordered series pair ``(XS, YS)`` in DSYB, compute
   ``minNMI = min(NMI(X;Y), NMI(Y;X))`` and the threshold mu from
   Corollary 1.1 (per direction; the more permissive direction is used so
   the filter only removes pairs that fail the bound both ways).
2. Pairs with ``minNMI >= mu`` are *correlated*; their series join ``XC``.
3. Frequent seasonal single events are mined only from the series of
   ``XC``; 2-event groups spanning two different series are mined only
   for correlated pairs; levels k >= 3 run the exact STPM machinery on the
   surviving HLH structures.

The result is a (typically large) subset of E-STPM's patterns, obtained
considerably faster -- the trade-off quantified by the paper's Tables
VII/XII and the accuracy metric in :mod:`repro.metrics.accuracy`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations

from repro.core.bounds import mu_threshold, series_pair_mu
from repro.core.config import MiningParams
from repro.core.executor import MiningExecutor, executor_scope
from repro.core.mi import normalized_mutual_information
from repro.core.prune import PruningConfig
from repro.core.results import MiningResult
from repro.core.stpm import ESTPM
from repro.exceptions import MiningError
from repro.obs import counters as metrics
from repro.obs.trace import span
from repro.symbolic.database import SymbolicDatabase
from repro.transform.sequence_db import TemporalSequenceDatabase, build_sequence_database


@dataclass(frozen=True)
class CorrelationReport:
    """Outcome of the MI screening step."""

    correlated_series: frozenset[str]
    correlated_pairs: frozenset[frozenset[str]]
    all_series: tuple[str, ...]
    mi_seconds: float
    pair_nmi: dict = field(default_factory=dict, compare=False)

    @property
    def n_pruned_series(self) -> int:
        """Series removed from the search space."""
        return len(self.all_series) - len(self.correlated_series)

    @property
    def pruned_series(self) -> list[str]:
        """Names of the pruned series, in DSYB order."""
        return [name for name in self.all_series if name not in self.correlated_series]

    def pruned_series_pct(self) -> float:
        """Percentage of series pruned (paper Table XI)."""
        if not self.all_series:
            return 0.0
        return 100.0 * self.n_pruned_series / len(self.all_series)


def screen_correlated_series(
    dsyb: SymbolicDatabase, params: MiningParams, n_granules: int
) -> CorrelationReport:
    """Alg. 2 lines 1-5: find the correlated series set ``XC``.

    mu is evaluated per direction (Corollary 1.1 depends on which series is
    conditioned); a pair is correlated when ``minNMI`` reaches the smaller
    of the two directional thresholds, keeping the filter conservative.
    """
    started = time.perf_counter()
    names = dsyb.names
    correlated: set[str] = set()
    pairs: set[frozenset[str]] = set()
    pair_nmi: dict[frozenset[str], float] = {}
    for name_x, name_y in combinations(names, 2):
        x, y = dsyb[name_x], dsyb[name_y]
        min_nmi = min(
            normalized_mutual_information(x, y),
            normalized_mutual_information(y, x),
        )
        mu = min(
            series_pair_mu(x, y, params, n_granules),
            series_pair_mu(y, x, params, n_granules),
        )
        if min_nmi >= mu:
            key = frozenset((name_x, name_y))
            pairs.add(key)
            pair_nmi[key] = min_nmi
            correlated.add(name_x)
            correlated.add(name_y)
    return CorrelationReport(
        correlated_series=frozenset(correlated),
        correlated_pairs=frozenset(pairs),
        all_series=tuple(names),
        mi_seconds=time.perf_counter() - started,
        pair_nmi=pair_nmi,
    )


def screen_events(
    dsyb: SymbolicDatabase,
    params: MiningParams,
    n_granules: int,
    report: CorrelationReport,
) -> set[str]:
    """Event-level pruning (the paper's stated future-work extension).

    Within the correlated series, an event ``e = (Y, y)`` is kept only if
    some correlated partner ``X`` of ``Y`` guarantees it: Corollary 1.1's
    per-event threshold ``mu(lambda1_X, p(y))`` must not exceed the pair's
    observed ``minNMI`` -- otherwise even the strongest retained
    correlation cannot certify ``minSeason`` occurrences for ``e``, and it
    is dropped from HLH1.  Returns the kept event keys.
    """
    kept_events: set[str] = set()
    for name_y in report.correlated_series:
        y = dsyb[name_y]
        partners = [
            next(iter(pair - {name_y}))
            for pair in report.correlated_pairs
            if name_y in pair
        ]
        for symbol, lambda2 in y.probabilities().items():
            if lambda2 == 0.0:
                continue
            event = y.event_key(symbol)
            for name_x in partners:
                probabilities_x = [
                    p for p in dsyb[name_x].probabilities().values() if p > 0.0
                ]
                lambda1 = min(probabilities_x)
                mu = mu_threshold(
                    lambda1, lambda2, params.min_season, params.min_density, n_granules
                )
                if mu <= report.pair_nmi[frozenset((name_x, name_y))]:
                    kept_events.add(event)
                    break
    return kept_events


@dataclass
class ASTPM:
    """The approximate seasonal temporal pattern miner (Alg. 2).

    Accepts the symbolic database plus the sequence-mapping ratio so the MI
    screening runs on DSYB (one scan, as the paper notes) while the mining
    runs on DSEQ.  A pre-built DSEQ can be supplied to avoid re-transforming
    in benchmarks.  ``executor`` / ``n_workers`` / ``strict`` /
    ``checkpoint_path`` are forwarded to the inner
    :class:`~repro.core.stpm.ESTPM` engine.
    """

    dsyb: SymbolicDatabase
    ratio: int
    params: MiningParams
    pruning: PruningConfig = field(default_factory=PruningConfig.all)
    dseq: TemporalSequenceDatabase | None = None
    event_level: bool = False
    executor: "MiningExecutor | str | None" = None
    n_workers: int | None = None
    strict: bool = True
    checkpoint_path: str | None = None

    def mine(self) -> MiningResult:
        """Run MI screening, then the restricted exact mining.

        With ``event_level=True`` the paper's future-work extension also
        drops individual events that no retained correlation can certify
        (see :func:`screen_events`).
        """
        if len(self.dsyb) == 0:
            raise MiningError("cannot mine an empty DSYB")
        with span("astpm/mine", ratio=self.ratio):
            dseq = self.dseq or build_sequence_database(self.dsyb, self.ratio)
            with span("astpm/mi_screening") as screen_span:
                report = screen_correlated_series(self.dsyb, self.params, len(dseq))
                event_filter = None
                if self.event_level:
                    event_filter = screen_events(
                        self.dsyb, self.params, len(dseq), report
                    )
                screen_span.set(
                    correlated_series=len(report.correlated_series),
                    pruned_series=report.n_pruned_series,
                )
            metrics.inc("astpm.series_pruned", report.n_pruned_series)
            # Alg. 2 line 7 iterates pairs *of XC*: once a series survives
            # the MI screening it participates in every 2-event group with
            # other survivors, so only the series filter applies here.  The
            # executor is resolved once and handed to the inner engine as
            # an instance, so a pool-backed backend spawns (and, for name
            # specs, closes) exactly one pool per A-STPM job.
            with executor_scope(self.executor, self.n_workers) as runner:
                miner = ESTPM(
                    dseq,
                    self.params,
                    self.pruning,
                    series_filter=set(report.correlated_series),
                    event_filter=event_filter,
                    executor=runner,
                    strict=self.strict,
                    checkpoint_path=self.checkpoint_path,
                )
                result = miner.mine()
            result.stats.mi_seconds = report.mi_seconds
            result.stats.n_series_pruned = report.n_pruned_series
        return result

    def screening(self) -> CorrelationReport:
        """Run only the MI screening step (for Table XI style reports)."""
        dseq = self.dseq or build_sequence_database(self.dsyb, self.ratio)
        return screen_correlated_series(self.dsyb, self.params, len(dseq))
