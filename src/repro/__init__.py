"""FreqSTPfTS -- Frequent Seasonal Temporal Pattern Mining from Time Series.

A faithful reproduction of "Mining Seasonal Temporal Patterns in Time
Series" (Ho, Ho, Pedersen -- ICDE 2023, arXiv:2206.14604).

Quickstart
----------
>>> from repro import (
...     Alphabet, SymbolicDatabase, build_sequence_database,
...     MiningParams, ESTPM,
... )
>>> dsyb = SymbolicDatabase.from_rows({"C": "110100", "D": "100110"})
>>> dseq = build_sequence_database(dsyb, ratio=3)
>>> params = MiningParams(max_period=2, min_density=1,
...                       dist_interval=(0, 10), min_season=1)
>>> result = ESTPM(dseq, params).mine()
>>> len(result) > 0
True

The public API re-exports the main building blocks; see DESIGN.md for the
module map and EXPERIMENTS.md for the paper-reproduction results.
"""

from repro.core.approximate import (
    ASTPM,
    CorrelationReport,
    screen_correlated_series,
    screen_events,
)
from repro.core.config import MiningParams
from repro.multigrain import (
    GranularityLevel,
    HierarchicalMiner,
    LevelScreening,
    MultiGranularityResult,
    resolve_level_params,
    screen_level,
)
from repro.core.supportset import (
    BitsetSupportSet,
    SupportSet,
    make_support_set,
)
from repro.core.query import PatternQuery, subpatterns_of, superpatterns_of
from repro.core.validation import validate_result, validate_seasonal_pattern
from repro.core.mi import (
    conditional_entropy,
    entropy,
    mutual_information,
    normalized_mutual_information,
)
from repro.core.pattern import TemporalPattern, Triple
from repro.core.prune import PruningConfig
from repro.core.results import MiningResult, SeasonalPattern
from repro.core.seasonality import SeasonView, compute_seasons, max_season
from repro.core.stpm import ESTPM, mine_seasonal_patterns
from repro.streaming import (
    IncrementalSTPM,
    MultiGrainStreamingService,
    PatternDelta,
    StreamingDatabase,
    StreamingMiningService,
    StreamingSymbolizer,
    replay_dataset,
)
from repro.events import (
    CONTAINS,
    FOLLOWS,
    OVERLAPS,
    EventInstance,
    RelationConfig,
    TemporalEvent,
    TemporalSequence,
    relation_between,
)
from repro.granularity import Granularity, GranularityHierarchy, Granule, TimeDomain
from repro.symbolic import (
    Alphabet,
    QuantileMapper,
    SaxMapper,
    SymbolicDatabase,
    SymbolicSeries,
    ThresholdMapper,
    TimeSeries,
)
from repro.resilience import (
    FailedTask,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    install_fault_plan,
)
from repro.transform import TemporalSequenceDatabase, build_sequence_database

__version__ = "1.15.0"

__all__ = [
    # granularity
    "TimeDomain",
    "Granularity",
    "Granule",
    "GranularityHierarchy",
    # symbolic
    "Alphabet",
    "TimeSeries",
    "SymbolicSeries",
    "SymbolicDatabase",
    "ThresholdMapper",
    "QuantileMapper",
    "SaxMapper",
    # events
    "TemporalEvent",
    "EventInstance",
    "TemporalSequence",
    "RelationConfig",
    "relation_between",
    "FOLLOWS",
    "CONTAINS",
    "OVERLAPS",
    # transform
    "TemporalSequenceDatabase",
    "build_sequence_database",
    # core
    "MiningParams",
    "PruningConfig",
    "ESTPM",
    "ASTPM",
    "mine_seasonal_patterns",
    "screen_correlated_series",
    "screen_events",
    "CorrelationReport",
    # multigrain engine
    "HierarchicalMiner",
    "GranularityLevel",
    "MultiGranularityResult",
    "LevelScreening",
    "screen_level",
    "resolve_level_params",
    "PatternQuery",
    "superpatterns_of",
    "subpatterns_of",
    "validate_result",
    "validate_seasonal_pattern",
    "TemporalPattern",
    "Triple",
    "MiningResult",
    "SeasonalPattern",
    "SeasonView",
    "compute_seasons",
    "max_season",
    # support-set engine
    "SupportSet",
    "BitsetSupportSet",
    "make_support_set",
    # resilience
    "RetryPolicy",
    "FailedTask",
    "FaultPlan",
    "FaultSpec",
    "install_fault_plan",
    # streaming
    "IncrementalSTPM",
    "PatternDelta",
    "StreamingDatabase",
    "StreamingMiningService",
    "MultiGrainStreamingService",
    "StreamingSymbolizer",
    "replay_dataset",
    # mi
    "entropy",
    "conditional_entropy",
    "mutual_information",
    "normalized_mutual_information",
    "__version__",
]
