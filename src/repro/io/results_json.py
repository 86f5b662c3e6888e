"""JSON serialization of mining results (single- and multi-level).

Persists the full seasonal evidence (support set, near support sets,
seasons) of every pattern, plus the run statistics, so results can be
archived, diffed across runs, or post-processed outside Python.  Two
archive kinds share the pattern payload:

* a flat :class:`~repro.core.results.MiningResult` archive (one mining
  run, ``result_to_json`` / ``result_from_json``);
* a multigrain archive holding one entry per hierarchy level with its
  ratio, resolved thresholds, and provenance (``multigrain_to_json`` /
  ``multigrain_from_json``), readable level-by-level via
  ``freqstpfts query --level``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.pattern import TemporalPattern, Triple
from repro.core.results import MiningResult, MiningStats, SeasonalPattern
from repro.core.seasonality import SeasonView
from repro.exceptions import ReproError
from repro.io.atomic import write_text_atomic
from repro.io.payload import (
    check_payload_version,
    load_payload,
    load_versioned_payload,
    params_from_dict,
    params_to_dict,
)
from repro.multigrain.result import GranularityLevel, MultiGranularityResult

FORMAT_VERSION = 1
MULTIGRAIN_FORMAT_VERSION = 1
MULTIGRAIN_KIND = "multigrain"


def _pattern_to_dict(sp: SeasonalPattern) -> dict:
    return {
        "events": list(sp.pattern.events),
        "triples": [list(triple) for triple in sp.pattern.triples],
        "support": list(sp.seasons.support),
        "near_sets": [list(near) for near in sp.seasons.near_sets],
        "seasons": [list(season) for season in sp.seasons.seasons],
    }


def _pattern_from_dict(payload: dict) -> SeasonalPattern:
    pattern = TemporalPattern(
        tuple(payload["events"]),
        tuple(Triple(*triple) for triple in payload["triples"]),
    )
    view = SeasonView(
        support=tuple(payload["support"]),
        near_sets=tuple(tuple(near) for near in payload["near_sets"]),
        seasons=tuple(tuple(season) for season in payload["seasons"]),
    )
    return SeasonalPattern(pattern, view)


def _result_to_dict(result: MiningResult) -> dict:
    stats = result.stats
    return {
        "patterns": [_pattern_to_dict(sp) for sp in result.patterns],
        "stats": {
            "n_granules": stats.n_granules,
            "n_events_scanned": stats.n_events_scanned,
            "n_candidate_events": stats.n_candidate_events,
            "n_series_pruned": stats.n_series_pruned,
            "n_events_pruned": stats.n_events_pruned,
            "mi_seconds": stats.mi_seconds,
            "mining_seconds": stats.mining_seconds,
            "n_frequent": {str(k): v for k, v in stats.n_frequent.items()},
        },
    }


def _result_from_dict(payload: dict) -> MiningResult:
    stats_payload = payload.get("stats", {})
    stats = MiningStats(
        n_granules=stats_payload.get("n_granules", 0),
        n_events_scanned=stats_payload.get("n_events_scanned", 0),
        n_candidate_events=stats_payload.get("n_candidate_events", 0),
        n_series_pruned=stats_payload.get("n_series_pruned", 0),
        n_events_pruned=stats_payload.get("n_events_pruned", 0),
        mi_seconds=stats_payload.get("mi_seconds", 0.0),
        mining_seconds=stats_payload.get("mining_seconds", 0.0),
        n_frequent={
            int(k): v for k, v in stats_payload.get("n_frequent", {}).items()
        },
    )
    patterns = [_pattern_from_dict(entry) for entry in payload.get("patterns", [])]
    return MiningResult(patterns=patterns, stats=stats)


def result_to_json(result: MiningResult, path: str | Path | None = None) -> str:
    """Serialize a result; optionally also write it to ``path``."""
    payload = {"format_version": FORMAT_VERSION, **_result_to_dict(result)}
    text = json.dumps(payload, indent=2)
    if path is not None:
        write_text_atomic(path, text)
    return text


def result_from_json(source: str | Path) -> MiningResult:
    """Rebuild a :class:`MiningResult` from a JSON string or file path."""
    payload = load_versioned_payload(source, FORMAT_VERSION, "result")
    if payload.get("kind") == MULTIGRAIN_KIND:
        raise ReproError(
            "this archive holds a multigrain result; load it with "
            "multigrain_from_json() (or `freqstpfts query --level`)"
        )
    try:
        return _result_from_dict(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ReproError(f"malformed result payload: {error!r}") from None


# ---------------------------------------------------------------------------
# Multigrain archives
# ---------------------------------------------------------------------------


def multigrain_to_json(
    result: MultiGranularityResult, path: str | Path | None = None
) -> str:
    """Serialize a multi-level result; optionally also write it to ``path``."""
    payload = {
        "format_version": MULTIGRAIN_FORMAT_VERSION,
        "kind": MULTIGRAIN_KIND,
        "levels": [
            {
                "ratio": level.ratio,
                "n_sequences": level.n_sequences,
                "derived_from": level.derived_from,
                "n_granules_skipped": level.n_granules_skipped,
                "seconds": level.seconds,
                "params": params_to_dict(level.params),
                "result": _result_to_dict(level.result),
            }
            for level in result.levels
        ],
    }
    text = json.dumps(payload, indent=2)
    if path is not None:
        write_text_atomic(path, text)
    return text


def multigrain_from_json(source: str | Path) -> MultiGranularityResult:
    """Rebuild a :class:`MultiGranularityResult` from JSON text or a path."""
    payload = load_versioned_payload(
        source, MULTIGRAIN_FORMAT_VERSION, "multigrain result"
    )
    return _multigrain_from_payload(payload)


def _multigrain_from_payload(payload: dict) -> MultiGranularityResult:
    """Parse an already version-checked multigrain payload."""
    if payload.get("kind") != MULTIGRAIN_KIND:
        raise ReproError(
            "this archive is not a multigrain result; load it with "
            "result_from_json()"
        )
    try:
        levels = [
            GranularityLevel(
                ratio=entry["ratio"],
                n_sequences=entry["n_sequences"],
                params=params_from_dict(entry["params"]),
                result=_result_from_dict(entry["result"]),
                derived_from=entry.get("derived_from"),
                n_granules_skipped=entry.get("n_granules_skipped", 0),
                seconds=entry.get("seconds", 0.0),
            )
            for entry in payload.get("levels", [])
        ]
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ReproError(f"malformed multigrain payload: {error!r}") from None
    if not levels:
        raise ReproError("multigrain archive holds no levels")
    return MultiGranularityResult(levels=levels)


def load_results_archive(
    source: str | Path,
) -> MiningResult | MultiGranularityResult:
    """Load either archive kind, sniffing the ``kind`` marker.

    The CLI ``query`` subcommand uses this so one command reads both flat
    and multigrain archives.  The kind is sniffed *before* the version
    check, so each kind is validated against its own format version.
    """
    payload = load_payload(source, "result")
    if payload.get("kind") == MULTIGRAIN_KIND:
        check_payload_version(
            payload, MULTIGRAIN_FORMAT_VERSION, "multigrain result"
        )
        return _multigrain_from_payload(payload)
    check_payload_version(payload, FORMAT_VERSION, "result")
    try:
        return _result_from_dict(payload)
    except (AttributeError, KeyError, TypeError, ValueError) as error:
        raise ReproError(f"malformed result payload: {error!r}") from None
