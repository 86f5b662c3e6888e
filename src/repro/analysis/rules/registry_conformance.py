"""RC -- export-surface conformance.

Two export checks move import-time failures to lint time: every
``__all__`` name must resolve, and every ``from repro.X import y``
against an indexed module must resolve (scripts and benchmarks have
broken silently on exactly this before).

* ``RC003``: ``__all__`` name with no module binding behind it.
* ``RC101``: ``from repro.X import y`` that the indexed ``repro.X``
  cannot satisfy.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.index import RepoIndex
from repro.analysis.rules.base import Rule


class DunderAllResolves(Rule):
    id = "RC003"
    summary = "__all__ must only list names the module actually binds"

    def check(self, repo: RepoIndex) -> Iterator[Finding]:
        for entry in repo:
            if entry.dunder_all is None:
                continue
            for name in entry.dunder_all:
                if name in entry.bindings:
                    continue
                if repo.has_submodule(entry.module, name):
                    continue
                yield self.finding(
                    entry,
                    1,
                    name,
                    f"__all__ lists {name!r} but the module neither binds it "
                    "nor contains a submodule of that name",
                )


class ImportTargetResolves(Rule):
    id = "RC101"
    summary = (
        "from repro.X import y must resolve against the indexed module "
        "(catches renamed symbols breaking scripts/ and benchmarks/)"
    )

    def check(self, repo: RepoIndex) -> Iterator[Finding]:
        for entry in repo:
            for record in entry.imports:
                if not record.name or record.name == "*":
                    continue
                if not record.module.startswith("repro"):
                    continue
                source = repo.get(record.module)
                if source is None:
                    # Only modules inside the analyzed scope are checkable;
                    # a genuinely missing module fails at import time anyway.
                    continue
                if record.name in source.bindings:
                    continue
                if repo.has_submodule(record.module, record.name):
                    continue
                yield self.finding(
                    entry,
                    record.line,
                    record.target,
                    f"{record.module} does not bind {record.name!r}; the "
                    "import will fail at runtime",
                )
