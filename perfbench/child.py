"""One measuring process of the end-to-end benchmark.

``run.py`` starts this script in a fresh interpreter with a pinned
environment.  It generates the workload's inputs from the seed, warms
up, runs jobs in a closed loop (each one starts after the previous one
returns) until its time budget is spent, and prints one JSON object as
its last stdout line:

* ``first_op``: ``time.monotonic()`` when the first timed job started,
  so the parent can measure set-up from the moment it spawned us;
* per job: wall seconds, op digests and errors (outside the timed part);
* ``rss_mb``: peak RSS, read right after the loop, before any check;
* ``problems``: what the sampled validation / ``verify_parity`` found;
* in traced mode, the per-layer metrics derived from the spans and
  counters of the traced jobs (jobs alternate traced / untraced, so the
  untraced ones measure the tracing overhead).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import repro
import workloads
from repro import obs
from repro.obs import span


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    """Collects the spans and counters of the traced jobs in memory."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.jobs: list[dict] = []

    def wants(self, index: int) -> bool:
        # Alternate, starting traced, so both kinds exist after two jobs.
        return self.enabled and index % 2 == 0

    def start(self) -> None:
        obs.reset_telemetry()
        obs.enable_telemetry()

    def stop(self, index: int, seconds: float) -> dict:
        obs.disable_telemetry()
        job = {
            "job": index,
            "seconds": seconds,
            "spans": [root.to_dict() for root in obs.trace_roots()],
            "counters": obs.summary()["counters"],
        }
        obs.reset_telemetry()
        self.jobs.append(job)
        return job


def _keep_going(jobs: list, minimum: int, deadline: float) -> bool:
    """Start another job unless the budget is spent; a job that would end
    past the deadline by more than half its length is not started."""
    if len(jobs) < minimum:
        return True
    return time.monotonic() + jobs[-1]["seconds"] / 2 < deadline


def run_batch(workload, budget: float, tracer: Tracer, validate: bool) -> dict:
    # Warm-up on the tiny inputs of the same seed: loads every lazily
    # imported module and code path without a full job's cost.
    workloads.make(workload.name, workload.seed, "tiny").run()
    gc.collect()
    jobs: list[dict] = []
    first_output = None
    first_op = time.monotonic()
    deadline = first_op + budget
    minimum = 2 if tracer.enabled else 1
    while _keep_going(jobs, minimum, deadline):
        index = len(jobs)
        traced = tracer.wants(index)
        if traced:
            tracer.start()
        error = None
        output = None
        started = time.perf_counter()
        try:
            with span("bench/job", workload=workload.name, op=index):
                output = workload.run()
        except Exception as exc:  # an op that raises counts as failed
            error = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - started
        job = {"seconds": seconds, "traced": traced}
        if traced:
            trace = tracer.stop(index, seconds)
            if output is not None:
                trace["counts"] = workload.counts(output, trace["counters"])
        if error is None:
            job["digests"] = [workload.digest(output)]
        else:
            job["digests"] = ["error"]
            job["error"] = error
        jobs.append(job)
        if first_output is None and output is not None:
            first_output = output
        del output
        gc.collect()
    rss = _peak_rss_mb()
    problems: list[str] = []
    if validate and first_output is not None:
        problems = workload.validate(first_output, workload.validate_limit)
    return {"first_op": first_op, "jobs": jobs, "rss_mb": rss, "problems": problems}


def run_stream(workload, budget: float, tracer: Tracer, validate: bool) -> dict:
    service = workload.warm()
    gc.collect()
    jobs: list[dict] = []
    first_op = time.monotonic()
    deadline = first_op + budget
    minimum = 2 if tracer.enabled else 1
    while _keep_going(jobs, minimum, deadline):
        if jobs:
            service = workload.warm()  # untimed: a fresh live phase
            gc.collect()
        index = len(jobs)
        traced = tracer.wants(index)
        if traced:
            tracer.start()
        latencies: list[float] = []
        deltas: list = []
        error = None
        started = time.perf_counter()
        for op, block in enumerate(workload.blocks):
            pushed = time.perf_counter()
            try:
                with span("bench/op", workload=workload.name, job=index, op=op):
                    deltas.append(workload.push(service, block))
            except Exception as exc:  # the live phase cannot go on
                error = f"push {op}: {type(exc).__name__}: {exc}"
                break
            latencies.append(time.perf_counter() - pushed)
        seconds = time.perf_counter() - started
        job = {"seconds": seconds, "traced": traced, "latencies": latencies}
        if traced:
            trace = tracer.stop(index, seconds)
            trace["counts"] = workload.counts(trace["counters"])
        digests = [workload.delta_digest(delta) for delta in deltas]
        if error is not None:
            job["error"] = error
            digests += ["error"] * (len(workload.blocks) - len(digests))
        job["digests"] = digests
        job["final"] = workload.final_digest(service) if error is None else "error"
        jobs.append(job)
        del deltas
    rss = _peak_rss_mb()
    problems = workload.validate(service, workload.validate_limit if validate else 0)
    return {"first_op": first_op, "jobs": jobs, "rss_mb": rss, "problems": problems}


def per_layer(workload, result: dict, tracer: Tracer) -> dict:
    """Per-layer metrics from the traced jobs (means per job) and the
    counts of the last traced job, which repeat exactly between jobs."""
    traced = tracer.jobs
    layer_seconds: dict[str, float] = {}
    unattributed = 0.0
    for job in traced:
        layers = workloads.attribute(job["spans"])
        for name, seconds in layers.items():
            layer_seconds[name] = layer_seconds.get(name, 0.0) + seconds
        unattributed += job["seconds"] - sum(layers.values())
    total = sum(job["seconds"] for job in traced)
    metrics = {name: 0.0 for name in workloads.SPEC["per_layer"]}
    for name, seconds in layer_seconds.items():
        metrics[name] = seconds / len(traced)
    last = traced[-1]
    for metric, counter in workloads.COUNTER_METRICS.items():
        metrics[metric] = last["counters"].get(counter, 0)
    metrics.update(last.get("counts", {}))
    metrics["bench.unattributed_frac"] = unattributed / total
    untraced = [job["seconds"] for job in result["jobs"] if not job["traced"]]
    metrics["obs.trace_overhead_frac"] = (
        statistics.median(job["seconds"] for job in traced) / statistics.median(untraced) - 1.0
    )
    if workload.kind == "stream":
        latencies = [
            value for job in result["jobs"] if not job["traced"] for value in job["latencies"]
        ]
        metrics["streaming.push_p50_ms"] = statistics.median(latencies) * 1000.0
        metrics["streaming.push_p95_ms"] = statistics.quantiles(latencies, n=100)[94] * 1000.0
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOAD_CLASSES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--budget", type=float, required=True, help="seconds of timed jobs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", help="where the traced run writes its trace JSON")
    parser.add_argument("--validate", type=int, choices=(0, 1), default=0)
    parser.add_argument("--validate-all", action="store_true",
                        help="run one job and validate every pattern (digest recording)")
    args = parser.parse_args(argv)

    workload = workloads.make(args.workload, args.seed, args.scale)
    gc.collect()
    if args.validate_all:
        return _validate_all(workload)
    tracer = Tracer(bool(args.trace))
    runner = run_stream if workload.kind == "stream" else run_batch
    result = runner(workload, args.budget, tracer, bool(args.validate))
    result["repro_file"] = repro.__file__
    if tracer.enabled:
        result["per_layer"] = per_layer(workload, result, tracer)
        if args.trace_out:
            path = Path(args.trace_out)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps({
                "workload": args.workload,
                "seed": args.seed,
                "scale": args.scale,
                "span_layers": workloads.SPAN_LAYERS,
                "per_layer": result["per_layer"],
                "jobs": tracer.jobs,
            }) + "\n")
    print(json.dumps(result))
    return 0


def _validate_all(workload) -> int:
    """Run one job, validate every pattern, print its digests."""
    if workload.kind == "stream":
        service = workload.warm()
        digests = [
            workload.delta_digest(workload.push(service, block)) for block in workload.blocks
        ]
        record = {"digests": digests, "final": workload.final_digest(service),
                  "patterns": len(service.result().patterns)}
        problems = workload.validate(service, None)
    else:
        output = workload.run()
        record = {"digests": [workload.digest(output)], "patterns": workload.n_patterns(output)}
        problems = workload.validate(output, None)
    record["problems"] = problems
    record["repro_file"] = repro.__file__
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
