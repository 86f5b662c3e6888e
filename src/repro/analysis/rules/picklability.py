"""EP -- the picklability contract of job checkpoints.

A job checkpoint pickles the outcome of every completed group task and
hierarchy level (``GroupOutcome``, ``GranularityLevel``) and a resumed
run unpickles them, possibly in a later build.  So the classes those
outcomes reach must exclude per-process caches from their pickled state
(``HLH1.__getstate__`` is the model: the columns are rebuilt on first
touch), and the callables the dispatch registries hold must resolve by
qualified name (module-level, not a lambda / closure / bound method).

* ``EP002``: boundary class with cache-like attributes but no
  ``__getstate__`` / ``__reduce__`` to exclude them.
* ``EP003``: dispatch-registry value that is not a module-level callable.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.index import ModuleIndex, RepoIndex
from repro.analysis.rules.base import (
    CACHE_ATTR_MARKERS,
    CALLABLE_REGISTRIES,
    PICKLE_BOUNDARY_MODULES,
    Rule,
)


def _nested_def_names(entry: ModuleIndex) -> set[str]:
    return {
        record.node.name for record in entry.functions if record.depth > 0
    }


def _describe_callable_problem(
    entry: ModuleIndex, node: ast.expr, nested: set[str]
) -> str | None:
    """Why ``node`` does not pickle by qualified name (None = fine)."""
    if isinstance(node, ast.Lambda):
        return "a lambda does not pickle; define a module-level function"
    if isinstance(node, ast.Attribute):
        if isinstance(node.value, ast.Name) and node.value.id in {
            record.alias for record in entry.imports if not record.name
        }:
            return None  # module_alias.function -- resolvable by name
        return (
            "a bound method / instance attribute does not pickle by "
            "qualified name; use a module-level function"
        )
    if isinstance(node, ast.Name):
        if node.id in entry.bindings:
            return None  # module-level def / import
        if node.id in nested:
            return (
                "a closure (function defined inside another function) "
                "does not pickle; hoist it to module level"
            )
        return None  # parameter or local alias -- not statically decidable
    if isinstance(node, ast.Call):
        func = node.func
        func_name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if func_name == "partial" and node.args:
            return _describe_callable_problem(entry, node.args[0], nested)
        return None  # arbitrary factory -- not statically decidable
    return None


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
    name matches the cache markers (``_support_cache``, ``_columns``,
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


class RegistryValueNotModuleLevel(Rule):
    id = "EP003"
    summary = (
        "dispatch-registry value must be a module-level callable "
        "(resolvable, and so picklable, by qualified name)"
    )

    def check(self, repo: RepoIndex) -> Iterator[Finding]:
        for entry in repo:
            nested = _nested_def_names(entry)
            for node in entry.tree.body:
                if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                    continue
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                if not any(name in CALLABLE_REGISTRIES for name in names):
                    continue
                value = node.value
                if not isinstance(value, ast.Dict):
                    continue
                registry_name = next(n for n in names if n in CALLABLE_REGISTRIES)
                for entry_value in value.values:
                    yield from self._check_value(entry, registry_name, entry_value, nested)

    def _check_value(
        self,
        entry: ModuleIndex,
        registry_name: str,
        node: ast.expr,
        nested: set[str],
    ) -> Iterator[Finding]:
        if isinstance(node, (ast.Tuple, ast.List)):
            for element in node.elts:
                yield from self._check_value(entry, registry_name, element, nested)
            return
        if isinstance(node, ast.Constant):
            return  # metadata entries (labels, descriptions) are fine
        problem = _describe_callable_problem(entry, node, nested)
        if problem is not None:
            symbol = getattr(node, "id", None) or registry_name
            yield self.finding(
                entry,
                node,
                f"{registry_name}.{symbol}",
                f"registry {registry_name} value: {problem}",
            )
