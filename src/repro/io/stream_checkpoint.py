"""Checkpoint persistence for streaming mining services.

A checkpoint stores everything that *determines* a stream's state -- the
mining thresholds, the symbolizer configuration (mode, breakpoints, raw
history), and the full per-series symbol history -- rather than the
miner's internal tables: the incremental state is a deterministic
function of the symbol stream, so a restore replays the history through a
fresh miner in one catch-up advance and lands on the exact
pre-checkpoint state.  This keeps the format small, diffable, and
forward-portable across internal state refactors.

Payloads are JSON with an explicit ``format_version``; unknown versions
are rejected with a clear :class:`~repro.exceptions.ReproError`, like the
results archive in :mod:`repro.io.results_json`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.exceptions import ReproError
from repro.io.atomic import write_text_atomic
from repro.io.payload import (
    load_versioned_payload,
    params_from_dict,
    params_to_dict,
)
from repro.symbolic.alphabet import Alphabet
from repro.symbolic.mapping import ThresholdMapper

STREAM_FORMAT_VERSION = 1


def _symbolizer_to_dict(symbolizer) -> dict | None:
    if symbolizer is None:
        return None
    breakpoints = {}
    for name, mapper in symbolizer.mappers.items():
        if not isinstance(mapper, ThresholdMapper):
            # Restoring would silently re-fit fresh breakpoints and
            # symbolize future data differently; refuse instead.
            raise ReproError(
                f"cannot checkpoint series {name!r}: frozen mapper "
                f"{type(mapper).__name__} is not serializable (only "
                "ThresholdMapper breakpoints are; fit the symbolizer via "
                "StreamingSymbolizer.fit)"
            )
        breakpoints[name] = list(mapper.breakpoints)
    return {
        "mode": symbolizer.mode,
        "alphabets": {
            name: list(alphabet.symbols)
            for name, alphabet in symbolizer.alphabets.items()
        },
        "breakpoints": breakpoints,
        "history": {name: list(values) for name, values in symbolizer.history.items()},
    }


def _symbolizer_from_dict(payload: dict | None):
    from repro.streaming.ingest import StreamingSymbolizer

    if payload is None:
        return None
    alphabets = {
        name: Alphabet(tuple(symbols))
        for name, symbols in payload["alphabets"].items()
    }
    mappers = {
        name: ThresholdMapper(tuple(points), alphabets[name])
        for name, points in payload.get("breakpoints", {}).items()
    }
    symbolizer = StreamingSymbolizer(
        alphabets, mode=payload["mode"], mappers=mappers
    )
    for name, values in payload.get("history", {}).items():
        symbolizer.history[name] = [float(v) for v in values]
    return symbolizer


def save_stream_checkpoint(service, path: str | Path | None = None) -> str:
    """Serialize a :class:`StreamingMiningService`; optionally write it."""
    database = service.database
    miner = service.miner
    payload = {
        "format_version": STREAM_FORMAT_VERSION,
        "params": params_to_dict(miner.params),
        "reanchor_every": miner.reanchor_every,
        "ratio": database.ratio,
        "alphabets": {
            name: list(alphabet.symbols)
            for name, alphabet in database.alphabets.items()
        },
        "symbols": {name: list(values) for name, values in database.symbols.items()},
        "symbolizer": _symbolizer_to_dict(service.symbolizer),
    }
    text = json.dumps(payload, indent=2)
    if path is not None:
        write_text_atomic(path, text)
    return text


def load_stream_checkpoint(source: str | Path):
    """Rebuild a :class:`StreamingMiningService` from a checkpoint.

    ``source`` is a path or the JSON text itself.  Raises
    :class:`ReproError` for malformed payloads or unknown versions.
    Checkpoints written before 1.14 also name the support-set
    representation the stream ran on; that choice no longer exists, so
    the key is ignored whatever its value.
    """
    from repro.streaming.ingest import StreamingDatabase
    from repro.streaming.service import StreamingMiningService

    payload = load_versioned_payload(
        source, STREAM_FORMAT_VERSION, "stream checkpoint"
    )
    try:
        database = StreamingDatabase(
            payload["ratio"],
            {
                name: Alphabet(tuple(symbols))
                for name, symbols in payload.get("alphabets", {}).items()
            },
        )
        symbol_history = payload["symbols"]
        symbolizer = _symbolizer_from_dict(payload.get("symbolizer"))
        service = StreamingMiningService(
            database,
            params_from_dict(payload["params"]),
            symbolizer=symbolizer,
            reanchor_every=payload.get("reanchor_every"),
        )
        service.push_symbols(symbol_history)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ReproError(f"malformed stream checkpoint: {error!r}") from None
    return service
