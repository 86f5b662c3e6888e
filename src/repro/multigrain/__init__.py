"""Hierarchical multi-granularity mining (the paper's contribution (1)).

FreqSTPfTS mines seasonal temporal patterns *at different data
granularities*: the same symbolic database can be sequence-mapped with
different ratios (5-minute granules into 15-minute, 1-hour, or 1-day
sequences) and mined at each level of the granularity hierarchy.  This
package turns that from a loop over independent jobs into one
hierarchical job:

* :mod:`repro.multigrain.screening` -- fold-derived coarse event supports
  (:meth:`~repro.core.supportset.SupportSet.coarsen` is exact for events)
  and the cross-level candidacy screening built on them;
* :mod:`repro.multigrain.engine` -- :class:`HierarchicalMiner`, which
  builds the finest level once, derives every coarser level's supports
  and granule rows from it, and mines the levels as independent level
  tasks;
* :mod:`repro.multigrain.result` -- :class:`MultiGranularityResult`,
  aligning the frequent patterns across levels ("which patterns persist
  from hourly to daily?").

Each level's result is equivalent to mining that level standalone
(``results_equivalent``); the fold-derived path just never re-walks the
raw symbol stream per level.
"""

from repro.multigrain.engine import (
    MINER_APPROXIMATE,
    MINER_EXACT,
    MINER_KINDS,
    STRATEGIES,
    STRATEGY_FOLD,
    STRATEGY_REBUILD,
    HierarchicalMiner,
    resolve_level_params,
)
from repro.multigrain.result import GranularityLevel, MultiGranularityResult
from repro.multigrain.screening import LevelScreening, screen_level

__all__ = [
    "HierarchicalMiner",
    "GranularityLevel",
    "MultiGranularityResult",
    "LevelScreening",
    "screen_level",
    "resolve_level_params",
    "MINER_EXACT",
    "MINER_APPROXIMATE",
    "MINER_KINDS",
    "STRATEGY_FOLD",
    "STRATEGY_REBUILD",
    "STRATEGIES",
]
