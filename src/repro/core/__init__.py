"""Phase 2 of FreqSTPfTS: seasonal temporal pattern mining (paper Secs. IV-V).

Public entry points:

* :class:`~repro.core.config.MiningParams` -- the four seasonal thresholds
  (maxPeriod, minDensity, distInterval, minSeason) plus relation settings.
* :class:`~repro.core.stpm.ESTPM` -- the exact miner (Alg. 1) with
  configurable pruning (:class:`~repro.core.prune.PruningConfig`).
* :class:`~repro.core.approximate.ASTPM` -- the MI-based approximate miner
  (Alg. 2).
* :class:`~repro.core.results.MiningResult` -- patterns plus statistics.
* :class:`~repro.core.supportset.SupportSet` -- the support-set algebra
  (one big-int bitset representation).
"""

from repro.core.config import MiningParams
from repro.core.approximate import ASTPM
from repro.core.pattern import TemporalPattern, Triple
from repro.core.prune import PruningConfig
from repro.core.results import MiningResult, SeasonalPattern
from repro.core.seasonality import SeasonView, compute_seasons, max_season
from repro.core.stpm import ESTPM
from repro.core.supportset import (
    BitsetSupportSet,
    SupportSet,
    make_support_set,
)

__all__ = [
    "MiningParams",
    "PruningConfig",
    "ESTPM",
    "ASTPM",
    "TemporalPattern",
    "Triple",
    "MiningResult",
    "SeasonalPattern",
    "SeasonView",
    "compute_seasons",
    "max_season",
    "SupportSet",
    "BitsetSupportSet",
    "make_support_set",
]
