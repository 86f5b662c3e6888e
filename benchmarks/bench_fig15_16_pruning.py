"""Bench F15/F16 (+ appendix F25/F26): E-STPM pruning ablation.

Paper shape: (All) is fastest, (NoPrune) slowest, with (Trans) and
(Apriori) in between; all four return identical pattern sets (asserted in
the unit/property tests).

Each figure runs :data:`RUNS` times and the asserts read each series'
median over the runs: one timing per variant leaves the 1.25x margins
to run-to-run noise on a shared machine.
"""

from statistics import median

import pytest
from _shared import run_once, series_means

from repro.harness import run_experiment

SWEEP = (4,)
RUNS = 3


@pytest.mark.parametrize(
    "artifact", ["F15", "F16", "F25", "F26"], ids=["RE", "INF", "SC", "HFM"]
)
def test_pruning_ablation(benchmark, record_artifact, artifact):
    figures = run_once(
        benchmark,
        lambda: [
            run_experiment(artifact, profile="bench", vary="min_season", values=SWEEP)
            for _ in range(RUNS)
        ],
    )
    record_artifact(artifact, "\n\n".join(figure.render() for figure in figures))
    runs = [series_means(figure) for figure in figures]
    medians = {name: median(run[name] for run in runs) for name in runs[0]}
    # Combined pruning beats no pruning; each single technique is at most
    # marginally slower than none (single-core timing jitter allowed).
    assert medians["All"] < medians["NoPrune"]
    assert medians["Apriori"] <= medians["NoPrune"] * 1.25
    assert medians["Trans"] <= medians["NoPrune"] * 1.25
    assert medians["All"] <= min(medians["Apriori"], medians["Trans"]) * 1.25
