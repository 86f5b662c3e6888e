"""Hierarchical multi-granularity mining (the paper's contribution (1)).

FreqSTPfTS mines seasonal temporal patterns *at different data
granularities*: the same symbolic database can be sequence-mapped with
different ratios (5-minute granules into 15-minute, 1-hour, or 1-day
sequences) and mined at each level of the granularity hierarchy.  This
package turns that from a loop over independent jobs into one
hierarchical job:

* :mod:`repro.multigrain.engine` -- :class:`HierarchicalMiner`, which
  builds the finest level once and then derives and mines one level at
  a time, each a task of the loop E-STPM runs its group tasks through
  (:func:`~repro.resilience.policy.run_tasks`); a coarser level is
  folded from the finest when its turn comes
  (:meth:`~repro.transform.sequence_db.TemporalSequenceDatabase.coarsen`:
  event supports folded exactly, granule rows merged only when first
  read) and freed once it is mined;
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
    HierarchicalMiner,
    resolve_level_params,
)
from repro.multigrain.result import GranularityLevel, MultiGranularityResult

__all__ = [
    "HierarchicalMiner",
    "GranularityLevel",
    "MultiGranularityResult",
    "resolve_level_params",
    "MINER_EXACT",
    "MINER_APPROXIMATE",
    "MINER_KINDS",
]
