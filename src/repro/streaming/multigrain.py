"""Multi-granularity streaming: several incremental miners off one ingest.

A deployment that watches a stream at hourly, daily, *and* weekly
granularity should not run three ingestion pipelines.
:class:`MultiGrainStreamingService` feeds one
:class:`~repro.streaming.ingest.StreamingDatabase` (at the finest
requested ratio) and maintains one
:class:`~repro.streaming.incremental.IncrementalSTPM` per ratio: each
coarser level's granule rows are *derived* by merging the finest level's
rows (:func:`~repro.transform.sequence_db.merge_sequences` -- the same
fold the batch :class:`~repro.multigrain.HierarchicalMiner` uses), so raw
points are symbolized and run-grouped exactly once per arrival.

Every level inherits the incremental miner's hard batch-parity guarantee:
after any push, ``result(ratio)`` equals batch E-STPM over the coarse
DSEQ of the consumed prefix (``verify_parity()`` asserts it per level).
"""

from __future__ import annotations

from typing import Sequence

from repro.core.config import MiningParams
from repro.core.results import MiningResult, SeasonalPattern
from repro.exceptions import MiningError
from repro.streaming.incremental import IncrementalSTPM, PatternDelta
from repro.streaming.ingest import StreamingDatabase, StreamingSymbolizer
from repro.transform.sequence_db import (
    TemporalSequenceDatabase,
    merge_sequences,
)


class _CoarseLevel:
    """One derived level: a growing coarse DSEQ plus its incremental miner."""

    def __init__(
        self,
        ratio: int,
        factor: int,
        params: MiningParams,
        support_backend: str | None,
        reanchor_every: int | None,
    ):
        self.ratio = ratio
        self.factor = factor
        self.dseq = TemporalSequenceDatabase(rows=[], ratio=ratio)
        self.miner = IncrementalSTPM(
            self.dseq,
            params,
            support_backend=support_backend,
            reanchor_every=reanchor_every,
        )

    def advance(self, fine_dseq: TemporalSequenceDatabase) -> PatternDelta:
        """Fold every newly completed group of fine rows, then mine."""
        n_available = len(fine_dseq) // self.factor
        while len(self.dseq) < n_available:
            position = len(self.dseq) + 1
            start = (position - 1) * self.factor
            self.dseq.append_row(
                merge_sequences(
                    fine_dseq.rows[start : start + self.factor], position
                )
            )
        return self.miner.advance()


class MultiGrainStreamingService:
    """One live stream mined at several granularities simultaneously.

    Parameters
    ----------
    database:
        The streaming DSEQ at the *base* ratio (the finest level).
    params_by_ratio:
        Seasonal thresholds per sequence-mapping ratio.  Every key must
        be the base ratio or a multiple of it; the base ratio itself is
        always mined (its params are required).  Thresholds are absolute
        per level -- resolve percentage thresholds against each level's
        expected horizon, e.g. via
        :func:`repro.multigrain.resolve_level_params`.
    symbolizer:
        Optional online symbolizer; required for :meth:`push` (raw
        points).  :meth:`push_symbols` works without one.
    support_backend / reanchor_every:
        Forwarded to every level's :class:`IncrementalSTPM`.
    """

    def __init__(
        self,
        database: StreamingDatabase,
        params_by_ratio: dict[int, MiningParams],
        symbolizer: StreamingSymbolizer | None = None,
        support_backend: str | None = None,
        reanchor_every: int | None = None,
    ):
        base = database.ratio
        if base not in params_by_ratio:
            raise MiningError(
                f"params_by_ratio must include the base ratio {base}; "
                f"got ratios {sorted(params_by_ratio)}"
            )
        self.database = database
        self.symbolizer = symbolizer
        self.base_ratio = base
        self.base_miner = IncrementalSTPM(
            database.dseq,
            params_by_ratio[base],
            support_backend=support_backend,
            reanchor_every=reanchor_every,
        )
        self._coarse: dict[int, _CoarseLevel] = {}
        for ratio in sorted(params_by_ratio):
            if ratio == base:
                continue
            if ratio % base != 0:
                raise MiningError(
                    f"ratio {ratio} is not a multiple of the base ratio {base}; "
                    "coarse streaming levels are derived by folding base granules"
                )
            self._coarse[ratio] = _CoarseLevel(
                ratio=ratio,
                factor=ratio // base,
                params=params_by_ratio[ratio],
                support_backend=support_backend,
                reanchor_every=reanchor_every,
            )
        # Consume anything already materialized (warm starts).
        if len(database.dseq):
            self._advance_all()

    @property
    def ratios(self) -> list[int]:
        """All mined ratios, ascending (base first)."""
        return [self.base_ratio] + sorted(self._coarse)

    def _level_miner(self, ratio: int) -> IncrementalSTPM:
        if ratio == self.base_ratio:
            return self.base_miner
        try:
            return self._coarse[ratio].miner
        except KeyError:
            raise MiningError(
                f"no streaming level at ratio {ratio}; available: {self.ratios}"
            ) from None

    def _advance_all(self) -> dict[int, PatternDelta]:
        deltas = {self.base_ratio: self.base_miner.advance()}
        for ratio, level in self._coarse.items():
            deltas[ratio] = level.advance(self.database.dseq)
        return deltas

    def push(self, points: dict[str, Sequence[float]]) -> dict[int, PatternDelta]:
        """Ingest raw points and mine every completed granule at every level."""
        if self.symbolizer is None:
            raise MiningError(
                "this stream has no symbolizer; push symbols via push_symbols()"
            )
        return self.push_symbols(self.symbolizer.push(points))

    def push_symbols(
        self, symbols: dict[str, Sequence[str] | str]
    ) -> dict[int, PatternDelta]:
        """Ingest already-symbolic values; returns one delta per ratio."""
        self.database.append_symbols(symbols)
        return self._advance_all()

    def n_granules(self, ratio: int) -> int:
        """Granules mined so far at ``ratio``."""
        return self._level_miner(ratio).n_granules

    def result(self, ratio: int) -> MiningResult:
        """The full mining result of one level."""
        return self._level_miner(ratio).result()

    def results(self) -> dict[int, MiningResult]:
        """The full mining result of every level, keyed by ratio."""
        return {ratio: self._level_miner(ratio).result() for ratio in self.ratios}

    def border_patterns(self, ratio: int) -> list[SeasonalPattern]:
        """One level's candidates one season short of promotion."""
        return self._level_miner(ratio).border_patterns()

    def verify_parity(self) -> dict[int, MiningResult]:
        """Assert batch equivalence for every level; returns batch results."""
        return {
            ratio: self._level_miner(ratio).verify_parity()
            for ratio in self.ratios
        }
