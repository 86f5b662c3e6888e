"""Structured stdlib logging for the ``repro.*`` logger hierarchy.

Two formatters, both single-line and grep-friendly:

* key=value (default): ``2026-08-08T12:00:00 WARNING
  repro.resilience.policy task quarantined task=('A:1', 'B:1') attempts=3``
* JSON-lines (``json_lines=True``): one JSON object per record, with
  any ``extra={...}`` fields inlined.

:func:`configure_logging` attaches exactly one stderr handler to the
``repro`` root logger (reconfiguring replaces it, so repeated CLI
invocations in one process never double-log) and disables propagation
so host applications' root handlers are left alone.  Machine-readable
output stays on stdout untouched -- everything logged here goes to
stderr.
"""

from __future__ import annotations

import json
import logging
import sys
from datetime import datetime
from typing import Any, TextIO

__all__ = [
    "BASE_LOGGER",
    "LEVELS",
    "KeyValueFormatter",
    "JsonLinesFormatter",
    "configure_logging",
    "get_logger",
]

BASE_LOGGER = "repro"

LEVELS = {
    "debug": logging.DEBUG,
    "info": logging.INFO,
    "warning": logging.WARNING,
    "error": logging.ERROR,
    "critical": logging.CRITICAL,
}

# Attributes every LogRecord carries; anything else on the record came
# from ``extra={...}`` and is emitted as structured fields.
_STANDARD_ATTRS = frozenset(
    logging.makeLogRecord({}).__dict__
) | {"message", "asctime", "taskName"}


def _extra_fields(record: logging.LogRecord) -> dict[str, Any]:
    return {
        key: value
        for key, value in record.__dict__.items()
        if key not in _STANDARD_ATTRS
    }


def _timestamp(record: logging.LogRecord) -> str:
    return datetime.fromtimestamp(record.created).isoformat(timespec="seconds")


class KeyValueFormatter(logging.Formatter):
    """``<ts> <LEVEL> <logger> <message> key=value ...``"""

    def format(self, record: logging.LogRecord) -> str:
        message = record.getMessage()
        parts = [_timestamp(record), record.levelname, record.name, message]
        for key, value in sorted(_extra_fields(record).items()):
            parts.append(f"{key}={value}")
        line = " ".join(parts)
        if record.exc_info:
            line = f"{line}\n{self.formatException(record.exc_info)}"
        return line


class JsonLinesFormatter(logging.Formatter):
    """One JSON object per record; ``extra`` fields are inlined."""

    def format(self, record: logging.LogRecord) -> str:
        payload: dict[str, Any] = {
            "ts": _timestamp(record),
            "level": record.levelname,
            "logger": record.name,
            "message": record.getMessage(),
        }
        payload.update(_extra_fields(record))
        if record.exc_info:
            payload["exc_info"] = self.formatException(record.exc_info)
        return json.dumps(payload, default=str)


def configure_logging(
    level: str | int = "warning",
    json_lines: bool = False,
    stream: TextIO | None = None,
) -> logging.Logger:
    """Attach the single ``repro`` stderr handler; returns the logger."""
    if isinstance(level, str):
        try:
            level = LEVELS[level.lower()]
        except KeyError:
            raise ValueError(
                f"unknown log level {level!r}; choose from {sorted(LEVELS)}"
            ) from None
    root = logging.getLogger(BASE_LOGGER)
    for handler in [h for h in root.handlers if getattr(h, "_repro_handler", False)]:
        root.removeHandler(handler)
        handler.close()
    handler = logging.StreamHandler(stream if stream is not None else sys.stderr)
    handler.setFormatter(JsonLinesFormatter() if json_lines else KeyValueFormatter())
    handler._repro_handler = True  # type: ignore[attr-defined]
    root.addHandler(handler)
    root.setLevel(level)
    root.propagate = False
    return root


def get_logger(name: str | None = None) -> logging.Logger:
    """A logger under the ``repro`` hierarchy.

    Accepts either a dotted module name that already starts with
    ``repro`` (the usual ``get_logger(__name__)``) or a bare suffix.
    """
    if not name:
        return logging.getLogger(BASE_LOGGER)
    if name == BASE_LOGGER or name.startswith(BASE_LOGGER + "."):
        return logging.getLogger(name)
    return logging.getLogger(f"{BASE_LOGGER}.{name}")
