"""Dependency-light telemetry for the mining runtime.

Three pieces, all stdlib-only and all zero-overhead when disabled:

* :mod:`repro.obs.trace` -- nestable, thread-safe wall-clock spans with
  optional traced-memory peaks, exported as a JSON trace tree plus a
  flat per-phase summary.
* :mod:`repro.obs.counters` -- process-local counters/gauges/histograms
  with picklable, mergeable snapshots.
* :mod:`repro.obs.logging` -- stdlib logging under the ``repro.*``
  hierarchy with key=value or JSON-lines formatting on stderr.

:func:`enable_telemetry` / :func:`disable_telemetry` flip tracing and
metrics together, which is what the CLI ``--trace`` flag uses.
"""

from __future__ import annotations

from repro.obs.counters import (
    Histogram,
    MetricRegistry,
    capture,
    disable_metrics,
    enable_metrics,
    inc,
    metrics_enabled,
    observe,
    registry,
    reset,
    set_gauge,
    summary,
)
from repro.obs.logging import (
    JsonLinesFormatter,
    KeyValueFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.trace import (
    Span,
    disable_tracing,
    enable_tracing,
    phase_summary,
    reset_trace,
    span,
    trace_roots,
    trace_tree,
    tracing_enabled,
    write_trace,
)

__all__ = [
    "Histogram",
    "MetricRegistry",
    "capture",
    "disable_metrics",
    "enable_metrics",
    "inc",
    "metrics_enabled",
    "observe",
    "registry",
    "reset",
    "set_gauge",
    "summary",
    "JsonLinesFormatter",
    "KeyValueFormatter",
    "configure_logging",
    "get_logger",
    "Span",
    "disable_tracing",
    "enable_tracing",
    "phase_summary",
    "reset_trace",
    "span",
    "trace_roots",
    "trace_tree",
    "tracing_enabled",
    "write_trace",
    "enable_telemetry",
    "disable_telemetry",
    "telemetry_enabled",
    "reset_telemetry",
]


def enable_telemetry() -> None:
    """Turn on both span tracing and metric counters."""
    enable_tracing()
    enable_metrics()


def disable_telemetry() -> None:
    """Turn off both span tracing and metric counters."""
    disable_tracing()
    disable_metrics()


def telemetry_enabled() -> bool:
    return tracing_enabled() or metrics_enabled()


def reset_telemetry() -> None:
    """Drop all collected spans and this thread's counters."""
    reset_trace()
    reset()
