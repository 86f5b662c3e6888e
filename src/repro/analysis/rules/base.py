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

import ast
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

#: Packages reachable from ``ThreadExecutor`` task paths: module-level
#: mutable state here must be ``threading.local``, lock-guarded, or
#: explicitly suppressed/baselined with a justification.
THREAD_SHARED_PACKAGES = (
    "repro.core",
    "repro.events",
    "repro.transform",
    "repro.streaming",
    "repro.symbolic",
    "repro.multigrain",
    "repro.obs",
    "repro.metrics",
)

#: Modules whose classes cross the executor boundary inside
#: ``LevelContext`` / ``HierarchicalContext`` / ``GroupOutcome`` payloads.
EXECUTOR_BOUNDARY_MODULES = (
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

#: Module-scope registries whose values ship (or are dispatched) across
#: process boundaries and therefore must hold module-level callables.
CALLABLE_REGISTRIES = (
    "MINERS",
    "DATASET_BUILDERS",
    "EXPERIMENTS",
)

#: Attribute-name heuristic of "per-process cache state" on classes that
#: cross the executor boundary (EP002).
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


def build_parent_map(tree: ast.AST) -> dict[ast.AST, ast.AST]:
    """Child -> parent links for ancestor queries (built per rule pass)."""
    parents: dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


def _expr_mentions_lock(node: ast.expr) -> bool:
    for part in ast.walk(node):
        if isinstance(part, ast.Name) and "lock" in part.id.lower():
            return True
        if isinstance(part, ast.Attribute) and "lock" in part.attr.lower():
            return True
    return False


def guarded_by_lock(node: ast.AST, parents: dict[ast.AST, ast.AST]) -> bool:
    """True when an ancestor ``with`` statement holds something lock-like.

    The heuristic is purely lexical (a context-manager expression whose
    name mentions ``lock``), which matches the repo convention of
    ``with _LOCK:`` around shared-state mutation.
    """
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.With, ast.AsyncWith)):
            for item in current.items:
                if _expr_mentions_lock(item.context_expr):
                    return True
        current = parents.get(current)
    return False


def enclosing_function(
    node: ast.AST, parents: dict[ast.AST, ast.AST]
) -> ast.FunctionDef | ast.AsyncFunctionDef | None:
    """The innermost function definition containing ``node``."""
    current = parents.get(node)
    while current is not None:
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return current
        current = parents.get(current)
    return None
