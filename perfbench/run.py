"""End-to-end benchmark of the seasonal-pattern miners, with per-layer
attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload estpm-re --seed 7 --seconds 12 --trace 0
    python3 perfbench/run.py --all            # every workload at its default seed
    python3 perfbench/run.py --record-digests # re-record perfbench/digests.json

One invocation measures one workload.  With ``--trace 0`` it starts
``children`` fresh processes (see ``spec.json``) one after another, each
with a share of ``--seconds``, and reports the end-to-end metrics that
``spec.json`` describes: median job time, median set-up time and median
peak RSS.  With ``--trace 1`` one process
alternates traced and untraced jobs and reports the per-layer metrics.
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; every invocation also appends a record to
``perfbench/results/history.jsonl``.

Each op's output is checked outside the timed part: against the digest
recorded in ``digests.json`` for the workload's default seed, otherwise
against the majority of the run's ops plus a bounded
``validate_seasonal_pattern`` sample (and ``verify_parity`` for the
stream).
"""

from __future__ import annotations

import argparse
import collections
import compileall
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = json.loads((HERE / "spec.json").read_text())
#: Whole-invocation budget; the contract requires an exit within 180 s.
DEADLINE_S = 170.0
#: Pinned in every child and recorded in the history.
CHILD_ENV = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchError(Exception):
    """The benchmark could not measure (missing program, crashed child)."""


def _child_env() -> dict[str, str]:
    # Engine overrides (REPRO_COMPUTE, REPRO_FAULT_PLAN, ...) are dropped:
    # every workload runs the defaults users get.
    env = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    env.update(CHILD_ENV)
    env["PYTHONPATH"] = str(SRC)
    return env


def _compile() -> None:
    """Compile bytecode up front so no child pays for it in set-up."""
    for directory in (SRC, HERE):
        if not compileall.compile_dir(str(directory), quiet=1, workers=1):
            raise BenchError(f"compiling {directory} failed")


def _run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run one child to completion; returns its result and spawn time."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a child")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            cwd=ROOT, env=_child_env(), capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args} timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(
            f"child {args} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    program = Path(result["repro_file"]).resolve()
    if SRC.resolve() not in program.parents:
        raise BenchError(f"child imported repro from {program}, not from {SRC}")
    return result, spawned


def _expected(record: dict | None, values: list[list[str]], width: int) -> list[str | None]:
    """The expected digest per op index: the recorded one when there is a
    record, otherwise the strict majority of the run's values."""
    if record is not None:
        return list(record)
    expected: list[str | None] = []
    for index in range(width):
        column = [row[index] for row in values if index < len(row)]
        digest, count = collections.Counter(column).most_common(1)[0]
        expected.append(digest if count * 2 > len(column) and digest != "error" else None)
    return expected


def score(kind: str, children: list[dict], record: dict | None) -> tuple[int, int, list[str]]:
    """Count attempted and failed ops over every child's jobs."""
    jobs = [(child, job) for child in children for job in child["jobs"]]
    notes = [problem for child in children for problem in child["problems"][:5]]
    digests = [job["digests"] for _, job in jobs]
    width = max(len(row) for row in digests)
    expected = _expected(None if record is None else record["digests"], digests, width)
    if kind == "stream":
        finals = _expected(
            None if record is None else [record["final"]], [[job["final"]] for _, job in jobs], 1
        )[0]
    attempted = failed = 0
    for (child, job), row in zip(jobs, digests):
        for index in range(width):
            attempted += 1
            bad = (
                bool(child["problems"])
                or index >= len(row)
                or row[index] != expected[index]
                or (kind == "stream" and job["final"] != finals)
            )
            failed += bad
        if "error" in job:
            notes.append(job["error"])
    return attempted, failed, notes


def _record_for(workload: str, seed: int, scale: str, digests: dict) -> dict | None:
    record = digests.get(workload, {}).get(scale)
    if record is None or record.get("seed") != seed:
        return None
    return record


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str,
            digests: dict, results: Path, deadline: float) -> dict:
    """One benchmark invocation; returns the contract's result object
    plus the detail that goes into the history."""
    spec = SPEC["workloads"][workload]
    record = _record_for(workload, seed, scale, digests)
    common = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    # Without a recorded digest the first child validates a sample; the
    # others must then agree with it (the majority check in score()).
    validate = ["--validate", "0" if record else "1"]
    children: list[dict] = []
    setups: list[float] = []
    if trace:
        trace_out = results / f"trace-{workload}-seed{seed}.json"
        child, _ = _run_child(
            [*common, *validate, "--budget", str(seconds), "--trace", "1",
             "--trace-out", str(trace_out)],
            deadline,
        )
        children.append(child)
    else:
        n_children = SPEC["children"]
        for index in range(n_children):
            child, spawned = _run_child(
                [*common, *(validate if index == 0 else []),
                 "--budget", str(seconds / n_children), "--trace", "0"],
                deadline,
            )
            children.append(child)
            setups.append(child["first_op"] - spawned)
    attempted, failed, notes = score(spec["kind"], children, record)
    jobs = [job for child in children for job in child["jobs"]]
    if trace:
        metrics = {
            name: {"value": children[0]["per_layer"][name], "unit": meta["unit"]}
            for name, meta in SPEC["per_layer"].items()
        }
    else:
        values = {
            "job_s": statistics.median(job["seconds"] for job in jobs),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(child["rss_mb"] for child in children),
        }
        metrics = {
            name: {"value": values[name], "unit": meta["unit"]}
            for name, meta in SPEC["end_to_end"].items()
        }
    extra = {
        "jobs": len(jobs),
        "job_seconds": [job["seconds"] for job in jobs],
        "setup_seconds": setups,
        "rss_mb": [child["rss_mb"] for child in children],
        "checked_against": "recorded digest" if record else "run majority + validation sample",
        "notes": notes[:10],
    }
    if spec["kind"] == "stream":
        latencies = [v for job in jobs if not job["traced"] for v in job["latencies"]]
        extra["pushes"] = len(latencies)
        extra["push_p50_ms"] = statistics.median(latencies) * 1000.0
        extra["push_p95_ms"] = statistics.quantiles(latencies, n=100)[94] * 1000.0
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return {"result": result, "extra": extra}


def _commit() -> str:
    """The checked-out commit, read from ``.git`` inside the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def append_history(results: Path, entry: dict) -> None:
    results.mkdir(parents=True, exist_ok=True)
    with open(results / "history.jsonl", "a") as handle:
        handle.write(json.dumps(entry) + "\n")


def _stamp() -> dict:
    return {
        "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "commit": _commit(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": _numpy_version(),
        "env": CHILD_ENV,
    }


def _numpy_version() -> str | None:
    from importlib import metadata

    try:
        return metadata.version("numpy")
    except metadata.PackageNotFoundError:
        return None


def _print_report(workload: str, seed: int, trace: bool, outcome: dict) -> None:
    result, extra = outcome["result"], outcome["extra"]
    fail_frac = result["failed"] / result["attempted"]
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  jobs {extra['jobs']}  "
          f"checked against {extra['checked_against']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.6g} {metric['unit']}")
    if "push_p50_ms" in extra:
        print(f"  {'push_p50_ms':32s} {extra['push_p50_ms']:14.6g} ms  ({extra['pushes']} pushes)")
        print(f"  {'push_p95_ms':32s} {extra['push_p95_ms']:14.6g} ms")
    print(f"  {'fail_frac':32s} {fail_frac:14.6g} frac  "
          f"({result['failed']} of {result['attempted']} ops)")
    for note in extra["notes"]:
        print(f"  ! {note}")


def record_digests(path: Path) -> int:
    """Re-record every workload's digests at its default seed, only from
    runs in which every pattern passes validation."""
    deadline = time.monotonic() + 3600  # validating every pattern is slow
    recorded: dict = {}
    for workload, spec in SPEC["workloads"].items():
        for scale in spec["scales"]:
            seed = spec["default_seed"]
            child, _ = _run_child(
                ["--workload", workload, "--seed", str(seed), "--scale", scale,
                 "--budget", "0", "--validate-all"], deadline,
            )
            if child["problems"]:
                print(f"{workload} ({scale}): validation failed:", *child["problems"][:10],
                      sep="\n  ", file=sys.stderr)
                return 1
            entry = {"seed": seed, "digests": child["digests"], "patterns": child["patterns"]}
            if "final" in child:
                entry["final"] = child["final"]
            recorded.setdefault(workload, {})[scale] = entry
            print(f"{workload} ({scale}): every pattern validated; digest recorded")
    path.write_text(json.dumps(recorded, indent=1) + "\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    started = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SPEC["workloads"]))
    parser.add_argument("--seed", type=int, help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", default="full", choices=("full", "tiny"),
                        help="input size; 'tiny' exists for the benchmark's own tests")
    parser.add_argument("--digests", type=Path, default=HERE / "digests.json",
                        help="recorded digests to check outputs against")
    parser.add_argument("--results-dir", type=Path, default=HERE / "results",
                        help="where the history and the traces are written")
    parser.add_argument("--all", action="store_true",
                        help="run every workload at its default seed, untraced and traced")
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: the program's sources are missing ({SRC / 'repro'})", file=sys.stderr)
        return 2
    if not (args.all or args.record_digests or args.workload):
        parser.error("give --workload, --all or --record-digests")
    deadline = started + DEADLINE_S
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    try:
        _compile()
        if args.record_digests:
            return record_digests(args.digests)
        digests = json.loads(args.digests.read_text()) if args.digests.exists() else {}
        if args.all:
            runs = [(name, spec["default_seed"], trace)
                    for name, spec in SPEC["workloads"].items() for trace in (False, True)]
            deadline = started + DEADLINE_S * len(runs)
        else:
            seed = args.seed
            if seed is None:
                seed = SPEC["workloads"][args.workload]["default_seed"]
            runs = [(args.workload, seed, bool(args.trace))]
        correct = True
        for workload, seed, trace in runs:
            outcome = measure(workload, seed, seconds, trace, args.scale, digests,
                              args.results_dir, deadline)
            append_history(args.results_dir, {
                **_stamp(), "workload": workload, "seed": seed, "scale": args.scale,
                "seconds": seconds, "trace": int(trace), **outcome,
            })
            _print_report(workload, seed, trace, outcome)
            correct = correct and outcome["result"]["correct"]
    except BenchError as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    if args.all:
        return 0 if correct else 1
    print(json.dumps(outcome["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
