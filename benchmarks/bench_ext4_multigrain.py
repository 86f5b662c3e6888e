"""Bench EXT4 (extension): fold-derived hierarchy vs per-level rebuilds.

The hierarchical miner's value proposition: mining a granularity
hierarchy should not pay the sequence-mapping setup once per level.  The
``rebuild`` strategy re-maps DSEQ from the raw symbol stream and
re-scans every event's support at every level; the ``fold`` strategy builds the finest level once and *derives* each
coarser level -- event supports by big-int bit-folds, candidacy gates
from the folded supports before any row exists, and granule rows only
where a candidate event needs them.

Workload: the multigrain seasonal *event* scan (``max_pattern_length=1``
-- "which events are seasonal at which granularity?"), the first-stage
multigrain workload where the per-level setup dominates, on a
long-horizon scaled RE/INF dataset over a six-level hierarchy.  Pattern
mining at k >= 2 runs identical group enumeration under both strategies
(the parity tests pin byte-equal results), so its cost is
strategy-independent; the ``perfbench`` workloads ``estpm-re`` and
``estpm-dense`` and the EXT3 streaming suite cover that regime.

Expected shape: fold-derived multi-level mining is at least 2x faster
than the per-level-rebuild baseline on a >= 3-level hierarchy, with
``results_equivalent`` levels.
"""

import time

import pytest
from _shared import record_benchmark_json, run_once

from repro.core.results import results_equivalent
from repro.datasets.energy import build_re
from repro.datasets.health import build_inf
from repro.datasets.scaling import scale_sequences
from repro.multigrain import HierarchicalMiner

N_SEQUENCES = 2000
MULTIPLES = (1, 2, 3, 4, 6, 8)
MIN_SPEEDUP = 2.0

BUILDERS = {"RE": (build_re, 16), "INF": (build_inf, 12)}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fold_vs_rebuild_hierarchy(benchmark, record_artifact, name):
    builder, n_series = BUILDERS[name]
    dataset = scale_sequences(builder, N_SEQUENCES, n_series=n_series)
    ratios = [dataset.ratio * multiple for multiple in MULTIPLES]
    settings = {
        "max_period_pct": 0.4,
        "min_density_pct": 2.0,
        "dist_interval": (
            dataset.dist_interval[0] * dataset.ratio,
            dataset.dist_interval[1] * dataset.ratio,
        ),
        "min_season": 6,
        "max_pattern_length": 1,
    }

    def measure():
        started = time.perf_counter()
        fold = HierarchicalMiner(
            dataset.dsyb, ratios=ratios, strategy="fold", **settings
        ).mine()
        fold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        rebuild = HierarchicalMiner(
            dataset.dsyb, ratios=ratios, strategy="rebuild", **settings
        ).mine()
        rebuild_seconds = time.perf_counter() - started
        for fold_level, rebuild_level in zip(fold.levels, rebuild.levels):
            assert results_equivalent(fold_level.result, rebuild_level.result), (
                f"fold level {fold_level.ratio} diverged from the rebuild baseline"
            )
        return fold, fold_seconds, rebuild_seconds

    fold, fold_seconds, rebuild_seconds = run_once(benchmark, measure)
    speedup = rebuild_seconds / fold_seconds
    skipped = sum(level.n_granules_skipped for level in fold.levels)
    screened = sum(level.n_events_screened for level in fold.levels)
    record_artifact(
        f"EXT4-multigrain-{name}",
        "\n".join(
            [
                f"EXT4 -- fold-derived hierarchy vs per-level rebuild on {name} "
                f"(scaled, {N_SEQUENCES} sequences x {n_series} series)",
                f"  hierarchy levels        : {len(ratios):6d} "
                f"(ratios {', '.join(str(r) for r in ratios)})",
                f"  frequent events/level   : "
                + ", ".join(str(len(level.result)) for level in fold.levels),
                f"  events screened (folds) : {screened:6d}",
                f"  granule rows skipped    : {skipped:6d}",
                f"  fold-derived mining     : {fold_seconds * 1000:10.1f} ms",
                f"  per-level rebuilds      : {rebuild_seconds * 1000:10.1f} ms",
                f"  fold speedup            : {speedup:10.1f}x",
                "  per-level results are results_equivalent across strategies",
            ]
        ),
    )
    record_benchmark_json(
        "EXT4",
        {
            "name": f"multigrain-{name}",
            "workload": {"dataset": name, "n_sequences": N_SEQUENCES,
                         "ratios": list(ratios)},
            "fold_seconds": fold_seconds,
            "rebuild_seconds": rebuild_seconds,
            "speedup": speedup,
            "floor": MIN_SPEEDUP,
            "events_screened": screened,
            "granule_rows_skipped": skipped,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fold-derived hierarchical mining must be >= {MIN_SPEEDUP}x faster "
        f"than per-level rebuilds, got {speedup:.1f}x"
    )
