"""Exception hierarchy for the :mod:`repro` library.

All library errors derive from :class:`ReproError` so that callers can catch
a single exception type at API boundaries while still being able to handle
the specific failure modes individually.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the library."""


class GranularityError(ReproError):
    """Raised for invalid time-granularity constructions or conversions."""


class SymbolizationError(ReproError):
    """Raised when a raw series cannot be mapped to a symbolic series."""


class TransformError(ReproError):
    """Raised when building a temporal sequence database fails."""


class ConfigError(ReproError):
    """Raised for invalid mining parameter combinations."""


class MiningError(ReproError):
    """Raised when a mining run cannot proceed."""


class DatasetError(ReproError):
    """Raised for invalid input data: dataset specifications, malformed
    CSV files, and NaN or infinite series values."""


class FaultInjected(ReproError):
    """Raised by the deterministic fault-injection layer.

    Never raised in production runs: a :class:`~repro.resilience.faults.FaultPlan`
    must be explicitly installed (or arrive via ``REPRO_FAULT_PLAN``) for
    this to fire.  The retry/recovery machinery treats it like any other
    transient task failure, which is exactly how the chaos suite proves
    the recovery paths work.
    """
