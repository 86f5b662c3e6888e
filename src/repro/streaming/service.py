"""The long-lived streaming mining service: ingest, mine, checkpoint.

:class:`StreamingMiningService` wires the online pipeline end to end --
raw points through a :class:`~repro.streaming.ingest.StreamingSymbolizer`
into a :class:`~repro.streaming.ingest.StreamingDatabase`, whose new
granules feed an :class:`~repro.streaming.incremental.IncrementalSTPM` --
and adds the operational concerns a deployment needs: durable
checkpoints (via the :mod:`repro.io` layer) and dataset replay (the
harness / benchmark entry point that turns any registered dataset into a
stream).
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterator, Sequence

from repro.core.config import MiningParams
from repro.core.results import MiningResult, SeasonalPattern
from repro.exceptions import ConfigError, MiningError
from repro.streaming.incremental import IncrementalSTPM, PatternDelta
from repro.streaming.ingest import StreamingDatabase, StreamingSymbolizer


class StreamingMiningService:
    """One live mining stream: push points or symbols, read pattern deltas.

    Parameters
    ----------
    database:
        The streaming DSEQ being fed (fixes the series set and ratio).
    params:
        Seasonal thresholds, identical semantics to batch E-STPM.
    symbolizer:
        Optional online symbolizer; required for :meth:`push` (raw
        points).  :meth:`push_symbols` works without one.
    reanchor_every:
        Forwarded to :class:`IncrementalSTPM`.
    checkpoint_path / checkpoint_every:
        Durable autosave: with both set, the service checkpoints itself
        (atomically -- a crash mid-save keeps the previous checkpoint)
        after every ``checkpoint_every``-th granule-completing push, so
        a killed stream restarts from its last autosave via
        :meth:`restore` instead of from scratch.  ``checkpoint_path``
        alone enables manual :meth:`save_checkpoint` to a default path.
    """

    def __init__(
        self,
        database: StreamingDatabase,
        params: MiningParams,
        symbolizer: StreamingSymbolizer | None = None,
        reanchor_every: int | None = None,
        checkpoint_path: str | Path | None = None,
        checkpoint_every: int | None = None,
    ):
        if checkpoint_every is not None and checkpoint_every < 1:
            raise MiningError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if checkpoint_every is not None and checkpoint_path is None:
            raise MiningError(
                "checkpoint_every needs a checkpoint_path to write to"
            )
        self.checkpoint_path = None if checkpoint_path is None else Path(checkpoint_path)
        self.checkpoint_every = checkpoint_every
        self._granules_since_checkpoint = 0
        self.database = database
        self.symbolizer = symbolizer
        if symbolizer is not None:
            # Inherit the symbolizer's alphabets so a database that was
            # constructed without any (and would otherwise be lazily
            # seeded by its first push, skipping symbol validation)
            # validates every pushed symbol.  Registration never touches
            # the series set -- the first push still fixes it, so a stream
            # carrying only a subset of the symbolizer's series keeps
            # forming granules -- and alphabets for series this stream
            # does not carry are irrelevant and skipped.
            database.register_alphabets(symbolizer.alphabets, ignore_unknown=True)
        self.miner = IncrementalSTPM(
            database.dseq, params, reanchor_every=reanchor_every
        )
        # Consume anything already materialized (warm starts / restores).
        if len(database.dseq):
            self.miner.advance()

    @property
    def params(self) -> MiningParams:
        """The stream's mining thresholds."""
        return self.miner.params

    @property
    def n_granules(self) -> int:
        """Granules mined so far."""
        return self.miner.n_granules

    def push(self, points: dict[str, Sequence[float]]) -> PatternDelta:
        """Ingest raw points per series and mine the completed granules."""
        if self.symbolizer is None:
            raise MiningError(
                "this stream has no symbolizer; push symbols via push_symbols()"
            )
        return self.push_symbols(self.symbolizer.push(points))

    def push_symbols(
        self, symbols: dict[str, Sequence[str] | str]
    ) -> PatternDelta:
        """Ingest already-symbolic values and mine the completed granules."""
        before = self.miner.n_granules
        self.database.append_symbols(symbols)
        delta = self.miner.advance()
        self._maybe_autosave(self.miner.n_granules - before)
        return delta

    def _maybe_autosave(self, new_granules: int) -> None:
        """Checkpoint after every ``checkpoint_every`` mined granules."""
        if self.checkpoint_every is None or new_granules <= 0:
            return
        self._granules_since_checkpoint += new_granules
        if self._granules_since_checkpoint >= self.checkpoint_every:
            self.save_checkpoint(self.checkpoint_path)
            self._granules_since_checkpoint = 0

    def result(self) -> MiningResult:
        """The full mining result over everything streamed so far."""
        return self.miner.result()

    def border_patterns(self) -> list[SeasonalPattern]:
        """Candidates one season short of promotion (the watch list).

        Candidates are what the season-chain gate admits; see
        :meth:`~repro.streaming.incremental.IncrementalSTPM.border_patterns`.
        """
        return self.miner.border_patterns()

    def verify_parity(self) -> MiningResult:
        """Assert equivalence against a fresh batch E-STPM run."""
        return self.miner.verify_parity()

    # ------------------------------------------------------------------
    # Checkpointing (see repro.io.stream_checkpoint for the format)
    # ------------------------------------------------------------------

    def save_checkpoint(self, path: str | Path | None = None) -> str:
        """Persist the stream as JSON; returns the payload text.

        ``path`` defaults to the service's ``checkpoint_path``; with
        neither set the payload is returned without being written.
        """
        from repro.io.stream_checkpoint import save_stream_checkpoint

        return save_stream_checkpoint(self, path or self.checkpoint_path)

    @classmethod
    def restore(cls, path: str | Path) -> "StreamingMiningService":
        """Rebuild a service from a checkpoint written by :meth:`save_checkpoint`.

        The symbol history is replayed through a fresh miner in one
        catch-up advance, reconstructing the exact pre-checkpoint state
        (the state is a deterministic function of the symbol stream).
        """
        from repro.io.stream_checkpoint import load_stream_checkpoint

        return load_stream_checkpoint(path)


def replay_dataset(
    dataset,
    params: MiningParams,
    batch_granules: int = 1,
    initial_granules: int | None = None,
    reanchor_every: int | None = None,
) -> Iterator[tuple[StreamingMiningService, PatternDelta]]:
    """Replay a registered dataset's symbol stream through a live service.

    Yields ``(service, delta)`` after the initial window and after every
    subsequent batch of ``batch_granules`` granules.  This is how the CLI
    ``stream`` subcommand and the EXT3 benchmark turn the paper's batch
    datasets into streams.

    Parameters
    ----------
    dataset:
        A :class:`~repro.datasets.dataset.Dataset` (its DSYB is the
        stream source; its ratio fixes granule size).
    initial_granules:
        Granules in the warm-up window (default: one batch).
    """
    if batch_granules < 1:
        raise ConfigError(f"batch_granules must be >= 1, got {batch_granules}")
    if initial_granules is None:
        initial_granules = batch_granules
    elif initial_granules < 1:
        raise ConfigError(f"initial_granules must be >= 1, got {initial_granules}")
    database = StreamingDatabase(
        dataset.ratio, {series.name: series.alphabet for series in dataset.dsyb}
    )
    service = StreamingMiningService(
        database, params, reanchor_every=reanchor_every
    )
    streams = {series.name: series.symbols for series in dataset.dsyb}
    n_instants = dataset.dsyb.n_instants
    cursor = 0
    first = True
    while cursor < n_instants:
        granules = initial_granules if first else batch_granules
        step = min(granules * dataset.ratio, n_instants - cursor)
        if step < dataset.ratio and not first:
            # A trailing partial block cannot form a granule; stop.
            break
        block = {
            name: symbols[cursor : cursor + step]
            for name, symbols in streams.items()
        }
        cursor += step
        first = False
        delta = service.push_symbols(block)
        yield service, delta
