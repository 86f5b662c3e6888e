"""Hierarchical multi-granularity mining on the energy dataset.

The paper's contribution (1): FreqSTPfTS mines seasonal temporal
patterns *at different data granularities*.  This example walks the RE
(renewable energy) dataset — 3-hourly raw samples — up a granularity
hierarchy to daily sequences in one hierarchical job:

1. declare the hierarchy (3-hourly ⊴2 6-hourly ⊴2 12-hourly ⊴2 daily);
2. mine every level at once with :class:`repro.HierarchicalMiner`
   (the finest level is built once; coarser levels derive their event
   supports by folding its support positions and their rows by run
   merges);
3. ask the cross-level questions the old per-level loop could not:
   which patterns persist from sub-daily to daily granularity, which
   are granularity artifacts, and how a pattern's season count moves;
4. archive the multi-level result for ``freqstpfts query --level``.

Run: ``python examples/multi_granularity.py``
"""

from repro import HierarchicalMiner, GranularityHierarchy, TimeDomain
from repro.datasets import load_dataset
from repro.io import multigrain_from_json, multigrain_to_json


def main() -> None:
    dataset = load_dataset("RE", profile="tiny")

    # 1. The hierarchy, in instants of the DSYB (RE samples 3-hourly,
    #    so widths 1/2/4/8 are 3h / 6h / 12h / 1 day).
    domain = TimeDomain(dataset.dsyb.n_instants, unit="3h")
    hierarchy = GranularityHierarchy.from_widths(
        domain, [1, 2, 4, 8], names=["3-Hours", "6-Hours", "12-Hours", "Daily"]
    )

    # 2. One hierarchical job over every level.
    miner = HierarchicalMiner.from_hierarchy(
        dataset.dsyb,
        hierarchy,
        max_period_pct=0.4,
        min_density_pct=1.0,
        dist_interval=(0, dataset.dist_interval[1] * dataset.ratio),
        min_season=4,
        max_pattern_length=2,
    )
    result = miner.mine()
    for level, granularity in zip(result.levels, hierarchy):
        origin = (
            f"fold-derived from ratio {level.derived_from}"
            if level.derived_from is not None
            else "built from DSYB"
        )
        print(
            f"{granularity.name:>8s} (ratio {level.ratio:2d}): "
            f"{level.n_sequences:4d} sequences, "
            f"{len(level.result):3d} frequent patterns ({origin})"
        )

    # 3. Cross-level alignment.
    persistent = result.persistent_patterns()
    print(f"\n{len(persistent)} patterns persist across all 4 granularities:")
    for pattern in persistent[:5]:
        trajectory = result.seasonal_trajectory(pattern)
        seasons = ", ".join(
            f"x{ratio}:{sp.n_seasons}" for ratio, sp in sorted(trajectory.items())
        )
        print(f"  {pattern.describe():50s} seasons {seasons}")
    daily_only = result.exclusive_patterns(8)
    print(f"{len(daily_only)} patterns are frequent at the daily level only.")

    # 4. Archive and reload (the CLI reads this with `query --level 8`).
    archived = multigrain_to_json(result)
    restored = multigrain_from_json(archived)
    assert restored.ratios == result.ratios
    assert restored.persistence() == result.persistence()
    print(f"\nArchived {len(archived)} bytes of multigrain JSON; reload is lossless.")


if __name__ == "__main__":
    main()
