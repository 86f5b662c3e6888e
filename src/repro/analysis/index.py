"""One-pass module index shared by every contract rule.

Each analyzed file is parsed exactly once into a :class:`ModuleIndex`:
the AST itself plus the pre-extracted facts most rules need (imports
with their scopes, module-level bindings, function definitions with
nesting depth, ``__all__``, suppression comments).
Rules then run as read-only passes over the :class:`RepoIndex`, so the
whole tree analyzes in one parse + N cheap walks instead of N parses.

Module naming: files under a ``src/`` root get their real dotted import
name (``src/repro/core/stpm.py`` -> ``repro.core.stpm``); files outside
it (``scripts/``, ``benchmarks/``) get a path-derived pseudo name
(``scripts.profile_mining``) that keeps them addressable without
pretending they are importable packages.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.analysis.suppress import SuppressionMap, parse_suppressions


@dataclass(frozen=True)
class ImportRecord:
    """One imported name binding.

    For ``from M import n as a``: ``module="M"``, ``name="n"``,
    ``alias="a"``.  For ``import M as a``: ``name=""`` and the binding
    is the whole module.  ``function_scope`` is True when the import
    statement lives inside a function body.
    """

    module: str
    name: str
    alias: str
    line: int
    col: int
    function_scope: bool

    @property
    def target(self) -> str:
        """The fully dotted thing this record binds (module or member)."""
        return f"{self.module}.{self.name}" if self.name else self.module


@dataclass(frozen=True)
class FunctionRecord:
    """One function/method definition with its nesting context."""

    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Number of enclosing *functions* (0 = module- or class-level def).
    depth: int
    #: Qualname of the enclosing class, "" for free functions.
    owner_class: str


class ModuleIndex:
    """Everything the rules need to know about one source file."""

    def __init__(self, path: Path, rel_path: str, module: str, source: str) -> None:
        self.path = path
        #: Repository-relative POSIX path (what findings report).
        self.rel_path = rel_path
        #: Dotted module name (real for ``src/`` files, path-derived otherwise).
        self.module = module
        self.tree: ast.Module = ast.parse(source, filename=str(path))
        self.suppressions: SuppressionMap = parse_suppressions(source)
        self.imports: list[ImportRecord] = []
        #: Module-scope name -> kind ("import" / "def" / "class" / "assign").
        self.bindings: dict[str, str] = {}
        #: All function defs (any depth), in source order.
        self.functions: list[FunctionRecord] = []
        #: Module-scope class defs by name.
        self.classes: dict[str, ast.ClassDef] = {}
        #: Names listed in a literal module-scope ``__all__``.
        self.dunder_all: list[str] | None = None
        self._index()

    # -- construction ---------------------------------------------------

    def _index(self) -> None:
        self._index_body(self.tree.body)
        for record in _walk_functions(self.tree.body, depth=0, owner_class="", prefix=""):
            self.functions.append(record)
        self._collect_imports()

    def _index_body(self, body: list[ast.stmt]) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.bindings[node.name] = "def"
            elif isinstance(node, ast.ClassDef):
                self.bindings[node.name] = "class"
                self.classes[node.name] = node
            elif isinstance(node, ast.Import):
                for item in node.names:
                    bound = item.asname or item.name.partition(".")[0]
                    self.bindings[bound] = "import"
            elif isinstance(node, ast.ImportFrom):
                for item in node.names:
                    self.bindings[item.asname or item.name] = "import"
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                self._index_assignment(node)
            elif isinstance(node, (ast.If, ast.Try)):
                # Conditional module-scope bindings (TYPE_CHECKING guards,
                # try/except import fallbacks) still bind names.
                for sub_body in _sub_bodies(node):
                    self._index_body(sub_body)

    def _index_assignment(self, node: ast.Assign | ast.AnnAssign | ast.AugAssign) -> None:
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        else:
            targets = [node.target]
            value = node.value
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            self.bindings.setdefault(name, "assign")
            if name == "__all__" and isinstance(value, (ast.List, ast.Tuple)):
                names = [
                    element.value
                    for element in value.elts
                    if isinstance(element, ast.Constant) and isinstance(element.value, str)
                ]
                self.dunder_all = names

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    self.imports.append(
                        ImportRecord(
                            module=item.name,
                            name="",
                            alias=item.asname or item.name.partition(".")[0],
                            line=node.lineno,
                            col=node.col_offset,
                            function_scope=node.col_offset > 0,
                        )
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative imports are not used in this tree
                    continue
                for item in node.names:
                    self.imports.append(
                        ImportRecord(
                            module=node.module or "",
                            name=item.name,
                            alias=item.asname or item.name,
                            line=node.lineno,
                            col=node.col_offset,
                            function_scope=node.col_offset > 0,
                        )
                    )

    # -- queries --------------------------------------------------------

    def import_aliases_of(self, module: str) -> set[str]:
        """Local names bound to the module ``module`` itself."""
        aliases = set()
        for record in self.imports:
            if not record.name and record.module == module:
                aliases.add(record.alias)
            elif record.name and f"{record.module}.{record.name}" == module:
                aliases.add(record.alias)
        return aliases

    def imported_name_aliases(self, module: str, name: str) -> set[str]:
        """Local names bound to ``module.name`` via from-imports."""
        return {
            record.alias
            for record in self.imports
            if record.name == name and record.module == module
        }


def _sub_bodies(node: ast.If | ast.Try) -> Iterator[list[ast.stmt]]:
    if isinstance(node, ast.If):
        yield node.body
        yield node.orelse
    else:
        yield node.body
        yield node.orelse
        yield node.finalbody
        for handler in node.handlers:
            yield handler.body


def _walk_functions(
    body: Iterable[ast.stmt], depth: int, owner_class: str, prefix: str
) -> Iterator[FunctionRecord]:
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            qualname = f"{prefix}{node.name}"
            yield FunctionRecord(qualname, node, depth, owner_class)
            yield from _walk_functions(
                node.body, depth + 1, owner_class, f"{qualname}.<locals>."
            )
        elif isinstance(node, ast.ClassDef):
            class_qualname = f"{prefix}{node.name}"
            yield from _walk_functions(
                node.body, depth, class_qualname, f"{class_qualname}."
            )
        elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For, ast.While)):
            yield from _walk_functions(
                [stmt for stmt in ast.iter_child_nodes(node) if isinstance(stmt, ast.stmt)],
                depth,
                owner_class,
                prefix,
            )


class RepoIndex:
    """The indexed view of every analyzed file."""

    def __init__(self, root: Path) -> None:
        #: Repository root all reported paths are relative to.
        self.root = root
        self.modules: dict[str, ModuleIndex] = {}
        self.by_path: dict[str, ModuleIndex] = {}
        #: Parse failures: rel_path -> error message (reported as findings).
        self.errors: dict[str, str] = {}

    def add_file(self, path: Path) -> None:
        rel = _relative_posix(path, self.root)
        module = _module_name(path, self.root)
        try:
            source = path.read_text(encoding="utf-8")
            entry = ModuleIndex(path, rel, module, source)
        except (OSError, SyntaxError, ValueError) as error:
            self.errors[rel] = f"cannot index {rel}: {error}"
            return
        self.modules[module] = entry
        self.by_path[rel] = entry

    def get(self, module: str) -> ModuleIndex | None:
        return self.modules.get(module)

    def has_submodule(self, package: str, name: str) -> bool:
        """True when ``package.name`` is an indexed module or package."""
        dotted = f"{package}.{name}"
        if dotted in self.modules:
            return True
        prefix = dotted + "."
        return any(module.startswith(prefix) for module in self.modules)

    def __iter__(self) -> Iterator[ModuleIndex]:
        return iter(self.modules.values())

    def __len__(self) -> int:
        return len(self.modules)


def _relative_posix(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _module_name(path: Path, root: Path) -> str:
    """Dotted module name of ``path`` (see module docstring)."""
    rel = Path(_relative_posix(path, root))
    parts = list(rel.parts)
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts) if parts else rel.stem


def build_index(root: Path, files: Iterable[Path]) -> RepoIndex:
    """Index every file once; rules run over the result."""
    index = RepoIndex(root)
    for path in files:
        index.add_file(path)
    return index
