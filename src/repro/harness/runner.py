"""Run experiments in bulk and collect a report.

Machine-readable output (the rendered tables/figures and the run
summary) goes to ``stream``/stdout exactly as before; diagnostics go to
the ``repro.harness.runner`` logger on stderr.  ``trace_path`` is the
harness telemetry hook: when set, the whole run executes with tracing
and counters enabled and the collected span tree + counter summary is
written as trace JSON next to the results.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Iterable, TextIO

from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.tables import Table
from repro.metrics.memory import measure_peak_memory
from repro.obs import (
    disable_telemetry,
    enable_telemetry,
    reset_telemetry,
    summary as metrics_summary,
    write_trace,
)
from repro.obs.logging import get_logger

__all__ = ["run_all"]

logger = get_logger(__name__)


def run_all(
    artifact_ids: Iterable[str] | None = None,
    profile: str = "bench",
    stream: TextIO | None = None,
    measure_memory: bool = True,
    trace_path: str | Path | None = None,
) -> dict[str, str]:
    """Run the requested experiments and return ``{id: rendered_output}``.

    Outputs are streamed to ``stream`` (default stdout) as they complete so
    long runs show progress, followed by a run summary table with each
    experiment's wall-clock time and (by default) peak traced memory.
    ``measure_memory=False`` drops the memory column and runs untraced --
    tracemalloc slows allocation-heavy mining, so use that when the
    summary's wall-clock numbers themselves are the point of the run.
    ``trace_path`` enables telemetry for the run and writes the span tree
    plus counter summary there when the run finishes (even on error).
    """
    stream = stream or sys.stdout
    ids = list(artifact_ids) if artifact_ids is not None else sorted(EXPERIMENTS)
    outputs: dict[str, str] = {}
    headers = ["Experiment", "Wall clock (s)"]
    if measure_memory:
        headers.append("Peak memory (MB)")
    summary = Table(title=f"Run summary ({profile} profile)", headers=headers)
    if trace_path is not None:
        reset_telemetry()
        enable_telemetry()
    try:
        for artifact_id in ids:
            logger.info(
                "experiment starting",
                extra={"experiment": artifact_id, "profile": profile},
            )
            started = time.perf_counter()
            if measure_memory:
                result, peak_bytes = measure_peak_memory(
                    # B023 does not apply: the lambda is invoked synchronously
                    # inside this iteration, before artifact_id rebinds.
                    lambda: run_experiment(artifact_id, profile=profile)  # noqa: B023
                )
            else:
                result = run_experiment(artifact_id, profile=profile)
            elapsed = time.perf_counter() - started
            logger.info(
                "experiment finished",
                extra={
                    "experiment": artifact_id,
                    "seconds": round(elapsed, 3),
                },
            )
            rendered = result.render()
            outputs[artifact_id] = rendered
            row: list = [artifact_id, elapsed]
            if measure_memory:
                row.append(peak_bytes / 1024 / 1024)
            summary.add_row(*row)
            print(f"\n### {artifact_id} (completed in {elapsed:.1f}s)\n", file=stream)
            print(rendered, file=stream)
            stream.flush()
        print(f"\n{summary.render()}", file=stream)
        stream.flush()
    finally:
        if trace_path is not None:
            path = write_trace(
                trace_path,
                command=f"run_all --profile {profile}",
                counters=metrics_summary(),
            )
            disable_telemetry()
            logger.info("trace written", extra={"path": str(path)})
    return outputs
