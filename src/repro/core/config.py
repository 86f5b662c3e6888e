"""Mining parameters (paper Sec. III-E and Table VI).

The FreqSTPfTS problem is governed by four user thresholds:

* ``max_period``  -- maximal period between two consecutive granules of a
  near support set (Def. 3.13);
* ``min_density`` -- minimal number of granules a near support set needs to
  be a season (Def. 3.14);
* ``dist_interval = [dist_min, dist_max]`` -- allowed distance between two
  consecutive seasons (Def. 3.15);
* ``min_season``  -- minimal number of seasons of a frequent pattern.

The paper's experiments express maxPeriod and minDensity as percentages of
``|DSEQ|`` (Table VI); :meth:`MiningParams.from_percentages` resolves those
to absolute granule counts.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

from repro.events.relations import RelationConfig
from repro.exceptions import ConfigError

# ---------------------------------------------------------------------------
# Compute-backend selection (numpy-optional kernels)
# ---------------------------------------------------------------------------

#: Compute backends of the front end and the support-set kernels: ``auto``
#: uses numpy when it is importable, ``numpy`` requires it, ``python``
#: forces the pure-Python machine-word fallback (always available, always
#: equivalent).  Step 2.2 makes no numpy call under any backend.
COMPUTE_AUTO = "auto"
COMPUTE_NUMPY = "numpy"
COMPUTE_PYTHON = "python"
COMPUTE_BACKENDS = (COMPUTE_AUTO, COMPUTE_NUMPY, COMPUTE_PYTHON)

#: Environment override so subprocesses (and CI fallback legs) inherit
#: the selection without any in-process plumbing.
COMPUTE_ENV_VAR = "REPRO_COMPUTE"

_COMPUTE_BACKEND: str | None = None
#: The numpy module, ``None`` when unavailable/disabled, unset sentinel
#: while the import has not been attempted.
_NUMPY_MODULE = ...


def validate_compute_backend(backend: str) -> str:
    """Return ``backend`` if known, raise :class:`ConfigError` otherwise."""
    if backend not in COMPUTE_BACKENDS:
        raise ConfigError(
            f"unknown compute backend {backend!r}; choose from {COMPUTE_BACKENDS}"
        )
    return backend


def compute_backend() -> str:
    """The selected compute backend (``auto`` / ``numpy`` / ``python``).

    Resolution order: :func:`set_compute_backend`, then the
    ``REPRO_COMPUTE`` environment variable, then ``auto``.
    """
    if _COMPUTE_BACKEND is not None:
        return _COMPUTE_BACKEND
    return validate_compute_backend(os.environ.get(COMPUTE_ENV_VAR, COMPUTE_AUTO))


def set_compute_backend(backend: str | None) -> str | None:
    """Set the process-wide compute backend; returns the previous override.

    ``None`` clears the override (falling back to the environment /
    ``auto``).  The selection only affects *speed*: every vectorized path
    has a pure-Python twin producing identical results.
    """
    global _COMPUTE_BACKEND, _NUMPY_MODULE
    previous = _COMPUTE_BACKEND
    _COMPUTE_BACKEND = (
        validate_compute_backend(backend) if backend is not None else None
    )
    _NUMPY_MODULE = ...  # re-resolve on next use
    return previous


def get_numpy():
    """The numpy module when the selection allows it, else ``None``.

    ``python`` always returns ``None``; ``numpy`` raises
    :class:`ConfigError` when numpy is not importable; ``auto`` quietly
    falls back to ``None``.  The import is attempted once and cached.
    """
    global _NUMPY_MODULE
    backend = compute_backend()
    if backend == COMPUTE_PYTHON:
        return None
    if _NUMPY_MODULE is ...:
        try:
            import numpy
        except ImportError:
            numpy = None
        _NUMPY_MODULE = numpy
    if _NUMPY_MODULE is None and backend == COMPUTE_NUMPY:
        raise ConfigError(
            "compute backend 'numpy' requested but numpy is not importable; "
            "install numpy or select 'auto'/'python'"
        )
    return _NUMPY_MODULE


@dataclass(frozen=True)
class MiningParams:
    """Absolute-valued thresholds driving a mining run.

    Parameters
    ----------
    max_period:
        Maximal gap (in coarse granule positions) inside a season.
    min_density:
        Minimal granule count of a season.
    dist_interval:
        ``(dist_min, dist_max)`` between consecutive seasons, measured from
        the end of one season to the start of the next.
    min_season:
        Minimal number of seasons of a frequent seasonal pattern.
    relation:
        Tolerance settings for the Follows / Contains / Overlaps checks.
    max_pattern_length:
        Upper bound on the number of events per pattern (the ``h`` of the
        search-space analysis).  The search space is O(n^h 3^(h^2)); 3 is
        the paper's qualitative pattern length and our default.
    """

    max_period: int
    min_density: int
    dist_interval: tuple[int, int]
    min_season: int
    relation: RelationConfig = field(default_factory=RelationConfig)
    max_pattern_length: int = 3

    def __post_init__(self) -> None:
        if self.max_period < 1:
            raise ConfigError(f"max_period must be >= 1, got {self.max_period}")
        if self.min_density < 1:
            raise ConfigError(f"min_density must be >= 1, got {self.min_density}")
        dist_min, dist_max = self.dist_interval
        if dist_min < 0 or dist_max < dist_min:
            raise ConfigError(
                f"dist_interval needs 0 <= dist_min <= dist_max, got {self.dist_interval}"
            )
        if self.min_season < 1:
            raise ConfigError(f"min_season must be >= 1, got {self.min_season}")
        if self.max_pattern_length < 1:
            raise ConfigError(
                f"max_pattern_length must be >= 1, got {self.max_pattern_length}"
            )

    @property
    def dist_min(self) -> int:
        """Lower bound of the season distance interval."""
        return self.dist_interval[0]

    @property
    def dist_max(self) -> int:
        """Upper bound of the season distance interval."""
        return self.dist_interval[1]

    @classmethod
    def from_percentages(
        cls,
        n_granules: int,
        max_period_pct: float,
        min_density_pct: float,
        dist_interval: tuple[int, int],
        min_season: int,
        relation: RelationConfig | None = None,
        max_pattern_length: int = 3,
    ) -> "MiningParams":
        """Resolve Table VI style percentage thresholds to absolute counts.

        ``max_period_pct`` and ``min_density_pct`` are percentages of
        ``n_granules`` (e.g. ``0.4`` means 0.4%).  Values are rounded up
        and floored at 1 so tiny databases stay minable.
        """
        if n_granules < 1:
            raise ConfigError(f"n_granules must be >= 1, got {n_granules}")
        for label, pct in (("max_period_pct", max_period_pct), ("min_density_pct", min_density_pct)):
            if pct <= 0:
                raise ConfigError(f"{label} must be > 0, got {pct}")
        return cls(
            max_period=max(1, math.ceil(n_granules * max_period_pct / 100.0)),
            min_density=max(1, math.ceil(n_granules * min_density_pct / 100.0)),
            dist_interval=dist_interval,
            min_season=min_season,
            relation=relation or RelationConfig(),
            max_pattern_length=max_pattern_length,
        )

    def with_updates(self, **changes) -> "MiningParams":
        """A copy with the given fields replaced (parameter sweeps)."""
        return replace(self, **changes)
