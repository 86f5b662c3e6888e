"""RC -- front-end registry and export-surface conformance (PRs 2/6/8).

The step-1 front end dispatches by name: ``FRONTEND_KERNELS`` selects a
DSEQ builder.  The registry is only checked at call time, so a renamed
builder surfaces as a runtime error deep inside a mining job.  These
rules move that failure to lint time, together with two export checks:
every ``__all__`` name must resolve, and every ``from repro.X import y``
against an indexed module must resolve (scripts and benchmarks have
broken silently on exactly this before).

* ``RC002``: ``FRONTEND_KERNELS`` entry without a ``_build_<name>``
  builder in the front-end module.
* ``RC003``: ``__all__`` name with no module binding behind it.
* ``RC101``: ``from repro.X import y`` that the indexed ``repro.X``
  cannot satisfy.
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.index import RepoIndex
from repro.analysis.rules.base import Rule

_FRONTEND_MODULE = "repro.transform.sequence_db"


class FrontendKernelRegistry(Rule):
    id = "RC002"
    summary = (
        "every FRONTEND_KERNELS name must have a _build_<name> builder in "
        "the sequence-db front end"
    )

    def check(self, repo: RepoIndex) -> Iterator[Finding]:
        entry = repo.get(_FRONTEND_MODULE)
        if entry is None:
            return
        declared = entry.constants.get("FRONTEND_KERNELS")
        if not isinstance(declared, tuple):
            yield self.finding(
                entry,
                1,
                "FRONTEND_KERNELS",
                "FRONTEND_KERNELS is not a foldable tuple of front-end names",
            )
            return
        for frontend in declared:
            builder = f"_build_{frontend}"
            if entry.function_def(builder) is None:
                yield self.finding(
                    entry,
                    1,
                    str(frontend),
                    f"FRONTEND_KERNELS declares {frontend!r} but the module "
                    f"defines no {builder}() dispatch target",
                )


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
