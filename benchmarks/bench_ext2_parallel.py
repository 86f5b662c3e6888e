"""Bench EXT2 (extension): the parallel executor.

Two measurements:

* **Serial vs parallel wall-clock** (Fig. 11/12 workloads) -- full E-STPM
  runs through the :class:`SerialExecutor` and the process-pool
  :class:`ParallelExecutor`, asserting the two mining results are
  identical (same patterns, same supports, same season views, same
  order).  The speedup column is informational: on a single-core runner
  the pool overhead makes the parallel backend slower; with cores it
  approaches the worker count on the group-heavy configurations.
* **Pool reuse vs per-level pool spawn** -- a multi-level workload (four
  seed datasets' E-STPM levels plus a two-level fold hierarchy, nine
  parallel level dispatches in all) run once with a fresh worker pool per
  level (the pre-1.4 executor lifecycle) and once through one persistent,
  reused pool.  Measured under ``spawn`` worker semantics -- the portable
  start method (macOS/Windows default), where every pool spawn boots new
  interpreters; under Linux ``fork`` a fresh pool inherits the level
  context copy-on-write, which is why ``reuse_pool`` auto-selects per
  start method.  The reused pool must win by >= 1.3x (asserted; CI runs
  this as part of the bench smoke), with identical mining results across
  serial / per-level / reused executors.
"""

import time

import pytest
from _shared import record_benchmark_json, run_once

from repro.core.executor import ParallelExecutor, SerialExecutor
from repro.core.results import results_equivalent
from repro.core.stpm import ESTPM
from repro.datasets.registry import DATASET_BUILDERS, PROFILES
from repro.multigrain import HierarchicalMiner

FRACTIONS = (0.5, 1.0)


def _scaling_dataset(name: str, fraction: float):
    base_sequences, n_series = PROFILES["bench"][name]
    return DATASET_BUILDERS[name](
        n_sequences=max(int(base_sequences * fraction), 8), n_series=n_series
    )


@pytest.mark.parametrize("name", ["RE", "INF"])
def test_serial_vs_parallel_executor(benchmark, record_artifact, name):
    datasets = [_scaling_dataset(name, fraction) for fraction in FRACTIONS]
    params = [
        dataset.params(max_period_pct=0.4, min_density_pct=0.75, min_season=6)
        for dataset in datasets
    ]

    def measure():
        rows = []
        for dataset, p in zip(datasets, params):
            dseq = dataset.dseq()
            started = time.perf_counter()
            serial = ESTPM(dseq, p, executor="serial").mine()
            serial_seconds = time.perf_counter() - started
            started = time.perf_counter()
            parallel = ESTPM(dseq, p, executor=ParallelExecutor()).mine()
            parallel_seconds = time.perf_counter() - started
            rows.append((len(dseq), serial, serial_seconds, parallel, parallel_seconds))
        return rows

    rows = run_once(benchmark, measure)
    lines = [
        f"EXT2 -- serial vs parallel E-STPM on {name} (Fig. 11/12 workload)",
        "  #seq   serial(s)  parallel(s)  speedup  #patterns",
    ]
    for n_seq, serial, serial_seconds, parallel, parallel_seconds in rows:
        assert [(sp.pattern, sp.seasons) for sp in serial.patterns] == [
            (sp.pattern, sp.seasons) for sp in parallel.patterns
        ], "executor backends must return identical mining results"
        lines.append(
            f"  {n_seq:5d}  {serial_seconds:9.2f}  {parallel_seconds:11.2f}"
            f"  {serial_seconds / parallel_seconds:7.2f}  {len(serial):9d}"
        )
    record_artifact(f"EXT2-parallel-{name}", "\n".join(lines))
    record_benchmark_json(
        "EXT2",
        {
            "name": f"parallel-{name}",
            "workload": {"dataset": name, "fractions": list(FRACTIONS)},
            "rows": [
                {
                    "n_sequences": n_seq,
                    "serial_seconds": serial_seconds,
                    "parallel_seconds": parallel_seconds,
                    "speedup": serial_seconds / parallel_seconds,
                    "n_patterns": len(serial),
                }
                for n_seq, serial, serial_seconds, _, parallel_seconds in rows
            ],
        },
    )


# ---------------------------------------------------------------------------
# Pool reuse vs per-level pool spawn (the persistent runtime's headline win)
# ---------------------------------------------------------------------------

#: The multi-level workload: (dataset, n_sequences, n_series, min_season)
#: E-STPM jobs -- two parallel HLH levels each -- plus a two-level fold
#: hierarchy, so one executor sees nine level dispatches across five
#: jobs.  The per-level mining work is kept small on purpose: the
#: quantity under test is the executor *lifecycle* cost per level (pool
#: spawn vs context broadcast), not the group mining itself.
_REUSE_JOBS = (
    ("RE", 48, 3, 3),
    ("INF", 52, 4, 4),
    ("SC", 48, 3, 3),
    ("HFM", 52, 4, 4),
)
_REUSE_SPEEDUP_FLOOR = 1.3


def _mine_multi_level(datasets, executor):
    """Run the whole multi-level workload through one executor spec."""
    results = []
    for name, _, _, min_season in _REUSE_JOBS:
        dataset, dseq = datasets[name]
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=min_season
        )
        results.append(ESTPM(dseq, params, executor=executor).mine())
    dataset, _ = datasets["RE"]
    hierarchy = HierarchicalMiner(
        dataset.dsyb,
        ratios=[dataset.ratio, dataset.ratio * 2],
        min_season=3,
        executor=executor,
    ).mine()
    results.extend(level.result for level in hierarchy.levels)
    return results


def test_pool_reuse_multi_level(benchmark, record_artifact):
    datasets = {}
    for name, n_sequences, n_series, _ in _REUSE_JOBS:
        dataset = DATASET_BUILDERS[name](
            n_sequences=n_sequences, n_series=n_series
        )
        datasets[name] = (dataset, dataset.dseq())

    def measure():
        timings = {}
        started = time.perf_counter()
        serial = _mine_multi_level(datasets, SerialExecutor())
        timings["serial"] = time.perf_counter() - started

        per_call = ParallelExecutor(
            max_workers=2, min_tasks=1, reuse_pool=False, start_method="spawn"
        )
        started = time.perf_counter()
        spawned = _mine_multi_level(datasets, per_call)
        timings["per-level pools"] = time.perf_counter() - started

        started = time.perf_counter()
        with ParallelExecutor(
            max_workers=2, min_tasks=1, reuse_pool=True, start_method="spawn"
        ) as reused:
            pooled = _mine_multi_level(datasets, reused)
        timings["reused pool"] = time.perf_counter() - started
        return timings, serial, spawned, pooled

    timings, serial, spawned, pooled = run_once(benchmark, measure)
    for variant in (spawned, pooled):
        assert len(variant) == len(serial)
        for left, right in zip(serial, variant):
            assert results_equivalent(left, right), (
                "executor backends must return equivalent mining results"
            )
    assert sum(len(r) for r in serial) > 0, "reuse workload mined nothing"
    speedup = timings["per-level pools"] / timings["reused pool"]
    lines = [
        "EXT2 -- pool reuse vs per-level pool spawn (multi-level workload: "
        f"{len(_REUSE_JOBS)} E-STPM jobs + 2-level RE hierarchy, 9 level "
        "dispatches; 2 spawn-method workers)",
        "  backend              wall clock (s)",
        f"  serial               {timings['serial']:13.2f}",
        f"  per-level pools      {timings['per-level pools']:13.2f}",
        f"  reused pool          {timings['reused pool']:13.2f}",
        f"  pool-reuse speedup   {speedup:12.2f}x  (floor {_REUSE_SPEEDUP_FLOOR}x)",
        "  (spawn start method: every per-level pool boots fresh "
        "interpreters, the portable cost the persistent runtime removes; "
        "under Linux fork a fresh pool is nearly free via copy-on-write, "
        "so reuse_pool auto-selects per start method)",
    ]
    record_artifact("EXT2-pool-reuse", "\n".join(lines))
    record_benchmark_json(
        "EXT2",
        {
            "name": "pool-reuse",
            "workload": {"jobs": [job[0] for job in _REUSE_JOBS],
                         "n_level_dispatches": 9, "workers": 2},
            "seconds": dict(timings),
            "speedup": speedup,
            "floor": _REUSE_SPEEDUP_FLOOR,
        },
    )
    assert speedup >= _REUSE_SPEEDUP_FLOOR, (
        f"pool reuse speedup {speedup:.2f}x below the {_REUSE_SPEEDUP_FLOOR}x floor"
    )
