"""Process-local counters, gauges, and histograms for the mining runtime.

The registry answers "how many pairs, how many intersections, how many
retries" without cProfile.  Three design rules keep it honest:

* **Zero overhead when disabled.**  ``inc``/``observe``/``set_gauge``
  check a module-level boolean first and return immediately -- no
  attribute lookups, no allocations -- so the step-2.2 hot loops cost
  nothing when telemetry is off.
* **Picklable, mergeable snapshots.**  A snapshot is a plain dict of
  plain dicts (JSON-able, so trace files and benchmark records embed
  it), and :meth:`MetricRegistry.merge` folds one registry's snapshot
  into another (counters add, gauges last-write-wins, histograms combine
  count/total/min/max/buckets).
* **Thread-local registries.**  Each thread records into its own
  registry; :func:`capture` installs a fresh one for the duration of a
  block so its counts are isolated (the benchmark harness captures each
  timed run and merges the snapshots into one suite record).

Counter names are dotted, lowercase, and enumerated in DESIGN.md's
Observability section (``mine.*``, ``kernel.*``, ``executor.*``,
``stream.*``, ``multigrain.*``).
"""

from __future__ import annotations

import math
import threading
from contextlib import contextmanager
from typing import Any, Iterator

__all__ = [
    "MetricRegistry",
    "Histogram",
    "metrics_enabled",
    "enable_metrics",
    "disable_metrics",
    "registry",
    "inc",
    "set_gauge",
    "observe",
    "capture",
    "summary",
    "reset",
]

# Module-level fast-path flag: the guarded helpers below read this one
# global and bail out before touching any thread-local state.
_ENABLED = False

_TLS = threading.local()


def metrics_enabled() -> bool:
    """True when metric recording is globally enabled."""
    return _ENABLED


def enable_metrics() -> None:
    global _ENABLED
    _ENABLED = True


def disable_metrics() -> None:
    global _ENABLED
    _ENABLED = False


class Histogram:
    """Summary statistics plus power-of-two magnitude buckets.

    Buckets are keyed by the binary exponent of the observed value
    (``math.frexp(value)[1]``), which gives a log2 histogram that merges
    exactly across processes without pre-declared bucket boundaries.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        exponent = math.frexp(value)[1] if value > 0 else 0
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    def merge(self, other: dict[str, Any]) -> None:
        if not other.get("count"):
            return
        self.count += other["count"]
        self.total += other["total"]
        if other["min"] < self.min:
            self.min = other["min"]
        if other["max"] > self.max:
            self.max = other["max"]
        for exponent, hits in other.get("buckets", {}).items():
            key = int(exponent)
            self.buckets[key] = self.buckets.get(key, 0) + hits

    def as_dict(self) -> dict[str, Any]:
        mean = self.total / self.count if self.count else 0.0
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": mean,
            "buckets": dict(self.buckets),
        }


class MetricRegistry:
    """One process-/thread-local view of all recorded metrics."""

    __slots__ = ("counters", "gauges", "histograms")

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}

    def inc(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def merge(self, snapshot: dict[str, Any]) -> None:
        """Fold a :meth:`snapshot` dict (possibly of another registry)."""
        for name, amount in snapshot.get("counters", {}).items():
            self.counters[name] = self.counters.get(name, 0) + amount
        self.gauges.update(snapshot.get("gauges", {}))
        for name, data in snapshot.get("histograms", {}).items():
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.merge(data)

    def snapshot(self) -> dict[str, Any]:
        """Plain-dict (picklable, JSON-able) copy of the registry."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in self.histograms.items()
            },
        }

    def clear(self) -> None:
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()


def registry() -> MetricRegistry:
    """The current thread's registry (created on first use)."""
    reg = getattr(_TLS, "registry", None)
    if reg is None:
        reg = _TLS.registry = MetricRegistry()
    return reg


def inc(name: str, amount: int = 1) -> None:
    """Add to a counter.  No-op (and allocation-free) when disabled."""
    if not _ENABLED:
        return
    registry().inc(name, amount)


def set_gauge(name: str, value: float) -> None:
    """Record a last-write-wins gauge.  No-op when disabled."""
    if not _ENABLED:
        return
    registry().set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record one histogram observation.  No-op when disabled."""
    if not _ENABLED:
        return
    registry().observe(name, value)


@contextmanager
def capture() -> Iterator[MetricRegistry]:
    """Record into a fresh registry for the duration of the block.

    Installs a new thread-local registry and force-enables metrics, so
    the block counts even when telemetry is globally off.  The previous
    registry and enabled state are restored on exit; the captured
    registry is yielded so its :meth:`snapshot` can be read or merged
    elsewhere.
    """
    global _ENABLED
    previous = getattr(_TLS, "registry", None)
    previous_enabled = _ENABLED
    fresh = MetricRegistry()
    _TLS.registry = fresh
    _ENABLED = True
    try:
        yield fresh
    finally:
        _ENABLED = previous_enabled
        if previous is None:
            del _TLS.registry
        else:
            _TLS.registry = previous


def summary() -> dict[str, Any]:
    """Snapshot of the current thread's registry."""
    return registry().snapshot()


def reset() -> None:
    """Clear the current thread's registry."""
    registry().clear()
