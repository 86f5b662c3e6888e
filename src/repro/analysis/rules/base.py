"""Rule interface and the shared scoping configuration.

A rule is a stateless object with an ``id``, a one-line ``summary``, and
a ``check(repo)`` generator yielding :class:`~repro.analysis.findings.Finding`
objects.  Rules never parse files themselves -- they read the
:class:`~repro.analysis.index.RepoIndex` built once per run.

The module-path constants below pin each contract to the part of the
tree where it is load-bearing; they are ordinary data so tests can
exercise rules against fixture trees with the same scoping.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.index import ModuleIndex, RepoIndex

#: The one module allowed to import numpy: the compute-backend registry.
COMPUTE_REGISTRY_MODULE = "repro.core.config"

#: Packages whose hot paths must use the guarded obs helpers only.
OBS_HOT_PACKAGES = (
    "repro.core",
    "repro.streaming",
    "repro.transform",
    "repro.multigrain",
)

#: Modules whose classes are pickled into job checkpoints inside
#: ``GroupOutcome`` / ``GranularityLevel`` outcomes and quarantine records.
PICKLE_BOUNDARY_MODULES = (
    "repro.core.stpm",
    "repro.core.hlh",
    "repro.core.supportset",
    "repro.core.instance_index",
    "repro.core.pattern",
    "repro.transform.sequence_db",
    "repro.events.event",
    "repro.events.sequence",
    "repro.multigrain.engine",
    "repro.resilience.policy",
    "repro.resilience.faults",
)

#: Module-scope dispatch registries, whose values must be module-level
#: callables (resolvable by qualified name).
CALLABLE_REGISTRIES = (
    "MINERS",
    "DATASET_BUILDERS",
    "EXPERIMENTS",
)

#: Attribute-name heuristic of "per-process cache state" on classes that
#: are pickled into job checkpoints (EP002).
CACHE_ATTR_MARKERS = ("cache", "cached", "column", "memo", "intern")


class Rule:
    """One contract check."""

    #: Stable identifier, e.g. ``CT001`` (what suppressions/baselines name).
    id = "XX000"
    #: One-line description shown by ``--list-rules`` and the docs.
    summary = ""

    def check(self, repo: RepoIndex) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, entry: ModuleIndex, node_or_line, symbol: str, message: str
    ) -> Finding:
        """Build a finding anchored at an AST node (or a bare line number)."""
        if isinstance(node_or_line, int):
            line, col = node_or_line, 0
        else:
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0)
        return Finding(
            path=entry.rel_path,
            line=line,
            col=col,
            rule=self.id,
            symbol=symbol,
            message=message,
        )


def in_packages(module: str, packages: tuple[str, ...]) -> bool:
    """True when ``module`` lives in (or is) one of ``packages``."""
    return any(
        module == package or module.startswith(package + ".")
        for package in packages
    )
