"""Bench EXT4 (extension): fold-derived hierarchy vs standalone per-level mining.

The hierarchical miner's value proposition: mining a granularity
hierarchy should not pay the sequence-mapping setup once per level.  The
baseline mines every level on its own -- ``build_sequence_database``
from the raw symbol stream, then E-STPM at the level's resolved
thresholds, re-scanning every event's support at every level; the
hierarchical miner builds the finest level once and *derives* each
coarser level -- event supports by folding the fine level's support
positions in one vectorised pass (``(p - 1) // f + 1``), then packing
the coarse level's bitsets at once, and granule rows merged from the
fine rows only when mining first reads one (a single-event level never
does).

Workload: the multigrain seasonal *event* scan (``max_pattern_length=1``
-- "which events are seasonal at which granularity?"), the first-stage
multigrain workload where the per-level setup dominates, on a
long-horizon scaled RE/INF dataset over a six-level hierarchy.  Pattern
mining at k >= 2 runs identical group enumeration either way (the parity
tests pin equivalent results), so its cost does not depend on how a
level was derived; the ``perfbench`` workloads ``estpm-re`` and
``estpm-dense`` and the EXT3 streaming suite cover that regime.

Expected shape: fold-derived multi-level mining is at least 2x faster
than standalone per-level mining on a >= 3-level hierarchy, with
``results_equivalent`` levels.
"""

import time

import pytest
from _shared import record_benchmark_json, run_once

from repro import ESTPM, build_sequence_database
from repro.core.results import results_equivalent
from repro.datasets.energy import build_re
from repro.datasets.health import build_inf
from repro.datasets.scaling import scale_sequences
from repro.multigrain import HierarchicalMiner, resolve_level_params

N_SEQUENCES = 2000
MULTIPLES = (1, 2, 3, 4, 6, 8)
MIN_SPEEDUP = 2.0

BUILDERS = {"RE": (build_re, 16), "INF": (build_inf, 12)}


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_fold_vs_standalone_levels(benchmark, record_artifact, name):
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
        fold = HierarchicalMiner(dataset.dsyb, ratios=ratios, **settings).mine()
        fold_seconds = time.perf_counter() - started
        started = time.perf_counter()
        standalone = []
        for ratio in ratios:
            dseq = build_sequence_database(dataset.dsyb, ratio)
            params = resolve_level_params(ratio=ratio, n_sequences=len(dseq), **settings)
            standalone.append(ESTPM(dseq, params).mine())
        standalone_seconds = time.perf_counter() - started
        for level, result in zip(fold.levels, standalone):
            assert results_equivalent(level.result, result), (
                f"fold level {level.ratio} diverged from standalone mining"
            )
        return fold, fold_seconds, standalone_seconds

    fold, fold_seconds, standalone_seconds = run_once(benchmark, measure)
    speedup = standalone_seconds / fold_seconds
    skipped = sum(level.n_granules_skipped for level in fold.levels)
    record_artifact(
        f"EXT4-multigrain-{name}",
        "\n".join(
            [
                f"EXT4 -- fold-derived hierarchy vs standalone levels on {name} "
                f"(scaled, {N_SEQUENCES} sequences x {n_series} series)",
                f"  hierarchy levels        : {len(ratios):6d} "
                f"(ratios {', '.join(str(r) for r in ratios)})",
                f"  frequent events/level   : "
                + ", ".join(str(len(level.result)) for level in fold.levels),
                f"  granule rows skipped    : {skipped:6d}",
                f"  fold-derived mining     : {fold_seconds * 1000:10.1f} ms",
                f"  standalone levels       : {standalone_seconds * 1000:10.1f} ms",
                f"  fold speedup            : {speedup:10.1f}x",
                "  per-level results are results_equivalent to standalone mining",
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
            "standalone_seconds": standalone_seconds,
            "speedup": speedup,
            "floor": MIN_SPEEDUP,
            "granule_rows_skipped": skipped,
        },
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fold-derived hierarchical mining must be >= {MIN_SPEEDUP}x faster "
        f"than standalone per-level mining, got {speedup:.1f}x"
    )
