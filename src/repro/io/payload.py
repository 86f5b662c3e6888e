"""Shared loading of versioned JSON payloads (results, checkpoints).

Every archive format of the :mod:`repro.io` layer is a JSON object with
an explicit ``format_version``.  This helper centralizes the common
scaffolding -- path-vs-text sniffing, parse-error wrapping, object and
version checks -- so the formats reject foreign payloads identically,
and the one codec of the :class:`~repro.core.config.MiningParams` they
embed (multigrain archives, stream checkpoints).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.core.config import MiningParams
from repro.events.relations import RelationConfig
from repro.exceptions import ReproError


def load_payload(source: str | Path, what: str) -> dict:
    """Parse ``source`` (a path or JSON text) into a dict, version-unchecked.

    Raises :class:`ReproError` with a ``what``-specific message when the
    payload is unreadable, unparseable, or not a JSON object.  Callers
    that dispatch on a payload marker (e.g. the results archive ``kind``)
    sniff first and apply :func:`check_payload_version` afterwards.
    """
    if isinstance(source, Path) or (
        isinstance(source, str) and not source.lstrip().startswith(("{", "["))
    ):
        try:
            text = Path(source).read_text()
        except OSError as error:
            raise ReproError(f"cannot read {what} file: {error}") from None
    else:
        text = source
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ReproError(f"invalid {what} JSON: {error}") from None
    if not isinstance(payload, dict):
        raise ReproError(
            f"{what} JSON must be an object, got {type(payload).__name__}"
        )
    return payload


def check_payload_version(payload: dict, expected_version: int, what: str) -> dict:
    """Return ``payload`` if it carries ``expected_version``, raise otherwise."""
    version = payload.get("format_version")
    if version != expected_version:
        raise ReproError(
            f"unsupported {what} format version {version!r} "
            f"(expected {expected_version})"
        )
    return payload


def load_versioned_payload(
    source: str | Path, expected_version: int, what: str
) -> dict:
    """Parse ``source`` (a path or JSON text) into a version-checked dict.

    Raises :class:`ReproError` with a ``what``-specific message when the
    payload is unparseable, not a JSON object, or carries a
    ``format_version`` other than ``expected_version``.
    """
    return check_payload_version(
        load_payload(source, what), expected_version, what
    )


def params_to_dict(params: MiningParams) -> dict:
    """The JSON form of ``params`` (see :func:`params_from_dict`)."""
    return {
        "max_period": params.max_period,
        "min_density": params.min_density,
        "dist_interval": list(params.dist_interval),
        "min_season": params.min_season,
        "max_pattern_length": params.max_pattern_length,
        "relation": {
            "epsilon": params.relation.epsilon,
            "min_overlap": params.relation.min_overlap,
        },
    }


def params_from_dict(payload: dict) -> MiningParams:
    """Rebuild the :class:`MiningParams` that :func:`params_to_dict` wrote.

    A missing ``max_pattern_length`` or ``relation`` takes its default.
    A payload of the wrong shape raises ``AttributeError``, ``KeyError``,
    ``TypeError`` or ``ValueError``; the loaders map those to
    :class:`ReproError`.
    """
    relation = payload.get("relation", {})
    return MiningParams(
        max_period=payload["max_period"],
        min_density=payload["min_density"],
        dist_interval=tuple(payload["dist_interval"]),
        min_season=payload["min_season"],
        max_pattern_length=payload.get("max_pattern_length", 3),
        relation=RelationConfig(
            epsilon=relation.get("epsilon", 0),
            min_overlap=relation.get("min_overlap", 1),
        ),
    )
