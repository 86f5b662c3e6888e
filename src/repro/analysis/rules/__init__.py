"""The contract-rule registry.

``ALL_RULES`` is the ordered tuple of rule *classes* the engine
instantiates per run; ordering only affects report layout (findings are
sorted by location anyway).  Adding a rule = appending it here.
"""

from repro.analysis.rules.base import Rule
from repro.analysis.rules.compute_twin import (
    FunctionScopeNumpyImport,
    ModuleScopeNumpyImport,
)
from repro.analysis.rules.obs_overhead import DirectObsAccess
from repro.analysis.rules.picklability import (
    BoundaryClassShipsCaches,
    RegistryValueNotModuleLevel,
)
from repro.analysis.rules.registry_conformance import (
    DunderAllResolves,
    ImportTargetResolves,
)

ALL_RULES: tuple[type[Rule], ...] = (
    ModuleScopeNumpyImport,
    FunctionScopeNumpyImport,
    BoundaryClassShipsCaches,
    RegistryValueNotModuleLevel,
    DirectObsAccess,
    DunderAllResolves,
    ImportTargetResolves,
)

__all__ = ["ALL_RULES", "Rule"]
