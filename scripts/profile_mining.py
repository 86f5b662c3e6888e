#!/usr/bin/env python3
"""Profile one harness experiment and print the hottest functions.

The perf-PR starting point: run a paper experiment under cProfile and
see where the time actually goes before touching any kernel.

Examples
--------
    python scripts/profile_mining.py F7
    python scripts/profile_mining.py T9 --profile tiny -n 40
    python scripts/profile_mining.py F11 --sort tottime
    python scripts/profile_mining.py F7 --trace /tmp/f7.json
    python scripts/profile_mining.py --phases /tmp/f7.json
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys
from pathlib import Path

# Allow running straight from a checkout without installing.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


def print_phase_table(rows: list[dict], stream=sys.stdout) -> None:
    """Render ``phase_summary`` rows (or a trace file's ``summary``) as a table."""
    width = max([len("phase")] + [len(row["name"]) for row in rows])
    print(
        f"{'phase':<{width}}  {'calls':>8}  {'seconds':>10}  {'self_s':>10}",
        file=stream,
    )
    for row in rows:
        print(
            f"{row['name']:<{width}}  {row['calls']:>8d}  "
            f"{row['seconds']:>10.4f}  {row['self_seconds']:>10.4f}",
            file=stream,
        )


def main(argv: list[str] | None = None) -> int:
    from repro.harness.experiments import EXPERIMENTS, run_experiment

    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "artifact_id",
        nargs="?",
        help=f"experiment to profile; one of {', '.join(sorted(EXPERIMENTS))}",
    )
    parser.add_argument(
        "--profile",
        default="bench",
        choices=("full", "bench", "tiny"),
        help="dataset profile (default: bench)",
    )
    parser.add_argument(
        "-n",
        "--top",
        type=int,
        default=25,
        help="number of functions to print (default: 25)",
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=("cumulative", "tottime", "ncalls"),
        help="pstats sort key (default: cumulative)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="also dump raw pstats data to this file (for snakeviz etc.)",
    )
    parser.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="FILE",
        help="also record the span/counter telemetry of the profiled run "
        "and write the trace JSON here (phase attribution to complement "
        "the function-level cProfile view)",
    )
    parser.add_argument(
        "--phases",
        type=Path,
        default=None,
        metavar="TRACE",
        help="print the per-phase table (name / calls / seconds / self "
        "seconds) of a trace JSON previously written with --trace, then "
        "exit without profiling anything",
    )
    args = parser.parse_args(argv)

    if args.phases is not None:
        payload = json.loads(args.phases.read_text())
        print_phase_table(payload.get("summary", []))
        return 0
    if args.artifact_id is None:
        parser.error("artifact_id is required unless --phases TRACE is given")

    if args.trace is not None:
        from repro.obs import enable_telemetry, reset_telemetry

        reset_telemetry()
        enable_telemetry()

    profiler = cProfile.Profile()
    profiler.enable()
    run_experiment(args.artifact_id, profile=args.profile)
    profiler.disable()

    if args.trace is not None:
        from repro.obs import disable_telemetry, summary, write_trace

        write_trace(
            args.trace,
            command=f"profile_mining {args.artifact_id} --profile {args.profile}",
            counters=summary(),
        )
        disable_telemetry()
        print(f"trace written to {args.trace}", file=sys.stderr)

    stats = pstats.Stats(profiler)
    if args.output is not None:
        stats.dump_stats(args.output)
        print(f"raw profile written to {args.output}", file=sys.stderr)
    stats.sort_stats(args.sort).print_stats(args.top)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
