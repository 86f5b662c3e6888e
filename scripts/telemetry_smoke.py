#!/usr/bin/env python3
"""CI smoke checks for the telemetry layer.

Two modes:

``validate TRACE.json``
    Assert the trace file written by ``--trace`` matches the documented
    schema (version, nested spans with names/durations, counter summary)
    and covers the mining phases end to end.

``overhead [--budget PCT]``
    Mine a dense workload with telemetry off (best of 3) and on (best of
    3) and fail when the enabled/disabled wall-clock ratio exceeds the
    budget (default 5%).  Guards the zero-overhead-when-disabled
    discipline from quietly regressing into always-on instrumentation
    cost.

Exit code 0 on success, 1 on failure, with a one-line verdict either
way.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# Allow running straight from a checkout without installing.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

#: Span names a full mining run must produce (symbolization through the
#: step-2.2 pattern growth).
REQUIRED_SPANS = (
    "dataset/symbolize",
    "estpm/mine",
    "estpm/step2.1",
    "estpm/step2.1/hlh1_scan",
    "estpm/step2.2/pairs",
)


def _collect_names(spans: list[dict], names: set[str]) -> None:
    for node in spans:
        names.add(node["name"])
        _collect_names(node.get("children", []), names)


def _check_span(node: dict, path: str) -> list[str]:
    problems = []
    if not isinstance(node.get("name"), str) or not node.get("name"):
        problems.append(f"{path}: span without a name")
    if not isinstance(node.get("seconds"), (int, float)) or node["seconds"] < 0:
        problems.append(f"{path}: span without a non-negative 'seconds'")
    if not isinstance(node.get("attrs"), dict):
        problems.append(f"{path}: span 'attrs' is not a dict")
    children = node.get("children")
    if not isinstance(children, list):
        problems.append(f"{path}: span 'children' is not a list")
        return problems
    for index, child in enumerate(children):
        problems.extend(_check_span(child, f"{path}/{index}"))
    return problems


def validate(trace_path: Path) -> int:
    """Schema-check one trace JSON; returns the process exit code."""
    payload = json.loads(trace_path.read_text())
    problems: list[str] = []
    if payload.get("version") != 1:
        problems.append(f"unexpected trace version: {payload.get('version')!r}")
    spans = payload.get("spans")
    if not isinstance(spans, list) or not spans:
        problems.append("'spans' missing or empty")
        spans = []
    for index, node in enumerate(spans):
        problems.extend(_check_span(node, f"spans/{index}"))
    if not isinstance(payload.get("summary"), list):
        problems.append("'summary' missing or not a list")
    counters = payload.get("counters")
    if not isinstance(counters, dict) or not isinstance(
        counters.get("counters"), dict
    ):
        problems.append("'counters' summary missing")
    elif not any(name.startswith("mine.") for name in counters["counters"]):
        problems.append("no mine.* counters recorded")
    names: set[str] = set()
    _collect_names(spans, names)
    for required in REQUIRED_SPANS:
        if required not in names:
            problems.append(f"required span missing: {required}")
    if problems:
        for problem in problems:
            print(f"telemetry validate: {problem}", file=sys.stderr)
        print(f"FAIL: {trace_path} ({len(problems)} schema problems)")
        return 1
    print(
        f"OK: {trace_path} -- {len(names)} span names, "
        f"{len(counters['counters'])} counters"
    )
    return 0


def _mine_once() -> float:
    """One E-STPM run on the tiny RE profile; returns its wall-clock seconds."""
    from repro.core.stpm import ESTPM
    from repro.datasets.registry import load_dataset

    dataset = load_dataset("RE", "tiny")
    params = dataset.params(min_season=4, min_density_pct=0.5)
    started = time.perf_counter()
    ESTPM(dataset.dseq(), params).mine()
    return time.perf_counter() - started


def overhead(budget_pct: float, rounds: int) -> int:
    """Compare disabled vs enabled telemetry; returns the exit code."""
    from repro.obs import disable_telemetry, enable_telemetry, reset_telemetry

    _mine_once()  # warm caches (imports, dataset build) outside both arms
    disable_telemetry()
    baseline = min(_mine_once() for _ in range(rounds))
    reset_telemetry()
    enable_telemetry()
    try:
        enabled = min(_mine_once() for _ in range(rounds))
    finally:
        disable_telemetry()
        reset_telemetry()
    ratio = enabled / baseline if baseline else float("inf")
    overhead_pct = (ratio - 1.0) * 100.0
    verdict = "OK" if overhead_pct <= budget_pct else "FAIL"
    print(
        f"{verdict}: telemetry overhead {overhead_pct:+.1f}% "
        f"(disabled best-of-{rounds} {baseline:.3f}s, "
        f"enabled {enabled:.3f}s, budget {budget_pct:.1f}%)"
    )
    return 0 if verdict == "OK" else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    validate_parser = sub.add_parser("validate", help="schema-check a trace JSON")
    validate_parser.add_argument("trace", type=Path)
    overhead_parser = sub.add_parser(
        "overhead", help="measure enabled-vs-disabled mining overhead"
    )
    overhead_parser.add_argument(
        "--budget", type=float, default=5.0, metavar="PCT",
        help="maximum tolerated overhead percentage (default: 5)",
    )
    overhead_parser.add_argument(
        "--rounds", type=int, default=3,
        help="runs per arm; the best is compared (default: 3)",
    )
    args = parser.parse_args(argv)
    if args.mode == "validate":
        return validate(args.trace)
    return overhead(args.budget, args.rounds)


if __name__ == "__main__":
    raise SystemExit(main())
