"""EP -- the picklability contract of job checkpoints.

A job checkpoint pickles the outcome of every completed group task and
hierarchy level (``GroupOutcome``, ``GranularityLevel``) and a resumed
run unpickles them, possibly in a later build.  So the classes those
outcomes reach must exclude per-process caches from their pickled state
(``HLH1.__getstate__`` is the model: its candidate list is rebuilt on
first touch).

* ``EP002``: boundary class with cache-like attributes but no
  ``__getstate__`` / ``__reduce__`` to exclude them.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.index import ModuleIndex, RepoIndex
from repro.analysis.rules.base import (
    CACHE_ATTR_MARKERS,
    PICKLE_BOUNDARY_MODULES,
    Rule,
)


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        name = decorator
        if isinstance(name, ast.Call):
            name = name.func
        if isinstance(name, ast.Name) and name.id == "dataclass":
            return True
        if isinstance(name, ast.Attribute) and name.attr == "dataclass":
            return True
    return False


def _field_has_compare_false(value: ast.expr | None) -> bool:
    if not isinstance(value, ast.Call):
        return False
    func = value.func
    if not (isinstance(func, ast.Name) and func.id == "field"):
        return False
    return any(
        keyword.arg == "compare"
        and isinstance(keyword.value, ast.Constant)
        and keyword.value.value is False
        for keyword in value.keywords
    )


def _name_is_cache_like(name: str) -> bool:
    lowered = name.lower()
    return any(marker in lowered for marker in CACHE_ATTR_MARKERS)


def _suspicious_attributes(node: ast.ClassDef) -> list[tuple[str, int]]:
    """Cache-like per-process attributes of one class.

    Two triggers: an underscore dataclass field excluded from comparison
    (derived state by construction), or any underscore attribute whose
    name matches the cache markers (``_support_cache``, ``_column_cache``,
    ``_interned`` ...), whether a dataclass field or a ``self._x``
    assignment in ``__init__``.
    """
    attrs: list[tuple[str, int]] = []
    is_dataclass = _is_dataclass(node)
    for stmt in node.body:
        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            name = stmt.target.id
            if not name.startswith("_") or name.startswith("__"):
                continue
            if is_dataclass and _field_has_compare_false(stmt.value):
                attrs.append((name, stmt.lineno))
            elif _name_is_cache_like(name):
                attrs.append((name, stmt.lineno))
        elif isinstance(stmt, ast.FunctionDef) and stmt.name == "__init__":
            for sub in ast.walk(stmt):
                if not isinstance(sub, ast.Assign):
                    continue
                for target in sub.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                        and target.attr.startswith("_")
                        and not target.attr.startswith("__")
                        and _name_is_cache_like(target.attr)
                    ):
                        attrs.append((target.attr, sub.lineno))
    return attrs


class BoundaryClassShipsCaches(Rule):
    id = "EP002"
    summary = (
        "class pickled into job checkpoints holds per-process cache "
        "attributes but defines no __getstate__/__reduce__ to exclude them"
    )

    def check(self, repo: RepoIndex) -> Iterator[Finding]:
        for module in PICKLE_BOUNDARY_MODULES:
            entry = repo.get(module)
            if entry is None:
                continue
            yield from self._check_module(entry)

    def _check_module(self, entry: ModuleIndex) -> Iterator[Finding]:
        for class_name, node in entry.classes.items():
            attrs = _suspicious_attributes(node)
            if not attrs:
                continue
            methods = {
                stmt.name
                for stmt in node.body
                if isinstance(stmt, ast.FunctionDef)
            }
            if methods & {"__getstate__", "__reduce__", "__reduce_ex__"}:
                continue
            names = ", ".join(sorted({name for name, _ in attrs}))
            yield self.finding(
                entry,
                node,
                class_name,
                f"class {class_name} is pickled into job checkpoints with "
                f"cache-like attributes ({names}) and default pickling; "
                "add __getstate__/__setstate__ (or __reduce__) so the "
                "per-process state is rebuilt instead of stored "
                "(see HLH1.__getstate__)",
            )
