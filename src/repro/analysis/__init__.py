"""Static contract analyzer for the freqstpfts tree.

A stdlib-only, AST-based lint engine that turns the repo's documented
runtime contracts into checked invariants:

* **CT** compute-twin -- numpy only via :func:`repro.core.config.get_numpy`;
* **EP** checkpoint picklability -- classes pickled into job checkpoints
  exclude per-process caches;
* **OB** zero-overhead telemetry -- hot paths use the guarded helpers;
* **RC** registry conformance -- the export surfaces resolve.

Run it with ``python -m repro.analysis`` or ``freqstpfts lint``.
Findings are filtered by ``# repro: ignore[RULE]`` comments and the
checked-in ``analysis-baseline.json``; see DESIGN.md ("Static
contracts") for the workflow.
"""

from repro.analysis.baseline import Baseline, load_baseline
from repro.analysis.engine import analyze, build_repo_index, rule_summaries, run_rules
from repro.analysis.findings import Finding
from repro.analysis.report import RunResult, render_json, render_text
from repro.analysis.rules import ALL_RULES
from repro.analysis.runner import main

__all__ = [
    "ALL_RULES",
    "Baseline",
    "Finding",
    "RunResult",
    "analyze",
    "build_repo_index",
    "load_baseline",
    "main",
    "render_json",
    "render_text",
    "rule_summaries",
    "run_rules",
]
