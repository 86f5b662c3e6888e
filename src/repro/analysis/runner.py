"""Command-line front end: ``python -m repro.analysis`` / ``freqstpfts lint``.

Exit codes: 0 clean (possibly with suppressed/baselined findings),
1 live findings or errors, 2 usage/configuration problems.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from repro.analysis.baseline import Baseline, load_baseline, write_baseline
from repro.analysis.engine import _selects, analyze, rule_summaries
from repro.analysis.report import render_json, render_text
from repro.analysis.rules import ALL_RULES

#: Default baseline location, relative to the analyzed root.
BASELINE_FILENAME = "analysis-baseline.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description=(
            "Static contract analyzer for the freqstpfts tree: enforces the "
            "compute-twin (CT), executor-picklability (EP), "
            "zero-overhead-telemetry (OB), and registry-conformance (RC) "
            "invariants documented in DESIGN.md ('Static contracts')."
        ),
    )
    parser.add_argument(
        "--root",
        default=".",
        help="repository root to analyze (default: current directory)",
    )
    parser.add_argument(
        "--paths",
        nargs="*",
        default=[],
        metavar="PATH",
        help=(
            "extra files/directories to analyze on top of src/repro "
            "(e.g. scripts benchmarks/_shared.py)"
        ),
    )
    parser.add_argument(
        "--select",
        nargs="*",
        default=[],
        metavar="RULE",
        help="run only the listed rule ids or families (e.g. CT001 EP002, or CT RC)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="FILE",
        help=f"baseline file (default: <root>/{BASELINE_FILENAME})",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline: report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help=(
            "accept all current findings into the baseline file (new "
            "entries get a FIXME justification you must fill in) and exit"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list rule ids and summaries, then exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, summary in sorted(rule_summaries().items()):
            print(f"{rule_id}  {summary}")
        return 0

    # Accept both `--select CT001 EP002` and `--select CT,EP`.
    select = [token for raw in args.select for token in raw.split(",") if token]
    unknown = [
        token
        for token in select
        if not any(_selects(token, rule.id) for rule in ALL_RULES)
    ]
    if unknown:
        print(
            "error: --select names unknown rule(s): " + ", ".join(sorted(set(unknown))),
            file=sys.stderr,
        )
        return 2

    root = Path(args.root).resolve()
    baseline_path = (
        Path(args.baseline) if args.baseline else root / BASELINE_FILENAME
    )
    try:
        baseline = Baseline() if args.no_baseline else load_baseline(baseline_path)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.write_baseline:
        from repro.analysis.engine import build_repo_index, run_rules

        repo = build_repo_index(root, args.paths)
        findings = [
            finding
            for finding in run_rules(repo)
            if not (
                (entry := repo.by_path.get(finding.path)) is not None
                and entry.suppressions.is_suppressed(finding.rule, finding.line)
            )
        ]
        count = write_baseline(baseline_path, findings, baseline)
        print(f"wrote {count} baseline entr{'y' if count == 1 else 'ies'} to {baseline_path}")
        return 0

    try:
        result = analyze(
            root,
            extra_paths=args.paths,
            baseline=baseline,
            rules=ALL_RULES,
            select=select,
        )
    except FileNotFoundError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.format == "json":
        sys.stdout.write(render_json(result))
    else:
        sys.stdout.write(render_text(result, rule_summaries()))
    return 0 if result.ok else 1
