"""Advanced workflow: multi-granularity mining, querying, archiving.

Demonstrates the library features beyond the core miner:

1. mine the same symbolic database at several granularities
   (:class:`repro.HierarchicalMiner` -- the paper's contribution (1));
2. navigate a large result with :class:`repro.PatternQuery` and the
   sub-/super-pattern containment search;
3. archive results as JSON and reload them;
4. independently validate a result against its DSEQ;
5. the event-level A-STPM extension (the paper's stated future work).

Run: ``python examples/advanced_workflow.py``
"""

from repro import (
    ASTPM,
    HierarchicalMiner,
    PatternQuery,
    superpatterns_of,
    validate_result,
)
from repro.datasets import load_dataset
from repro.io import result_from_json, result_to_json
from repro.transform import build_sequence_database


def main() -> None:
    dataset = load_dataset("INF", profile="bench")

    # 1. Multi-granularity: weekly (ratio 7) and biweekly (ratio 14).
    miner = HierarchicalMiner(
        dataset.dsyb,
        ratios=[7, 14],
        max_period_pct=0.4,
        min_density_pct=0.5,
        dist_interval=(70, 350),  # fine (daily) granules
        min_season=4,
    )
    levels = miner.mine().levels
    for level in levels:
        print(
            f"ratio {level.ratio:2d}: {level.n_sequences} sequences, "
            f"{len(level.result)} frequent seasonal patterns "
            f"(maxPeriod={level.params.max_period}, "
            f"distInterval={level.params.dist_interval})"
        )

    weekly = levels[0].result

    # 2. Query: multi-event influenza patterns with strong seasonality.
    query = PatternQuery().with_series("InfluenzaCases").min_size(2).min_seasons(6)
    hits = query.run(weekly)
    print(f"\n{len(hits)} strong influenza couplings; top 5:")
    for sp in hits[:5]:
        print(f"  {sp.pattern.describe():55s} seasons={sp.n_seasons}")
    two_event_hits = [sp for sp in hits if sp.size == 2]
    if two_event_hits:
        supers = superpatterns_of(two_event_hits[0].pattern, weekly)
        print(
            f"  {two_event_hits[0].pattern.describe()!r} is contained in "
            f"{len(supers)} longer frequent patterns"
        )

    # 3. Archive and reload.
    archived = result_to_json(weekly)
    restored = result_from_json(archived)
    assert restored.pattern_keys() == weekly.pattern_keys()
    print(f"\nArchived {len(archived)} bytes of JSON; reload is lossless.")

    # 4. Independent validation (first 20 patterns for speed).
    dseq = build_sequence_database(dataset.dsyb, 7)
    problems = validate_result(weekly, dseq, levels[0].params, limit=20)
    print(f"Validator re-checked 20 patterns: {len(problems)} violations.")

    # 5. Event-level A-STPM (future-work extension).
    params = levels[0].params
    plain = ASTPM(dataset.dsyb, 7, params, dseq=dseq).mine()
    extended = ASTPM(dataset.dsyb, 7, params, dseq=dseq, event_level=True).mine()
    print(
        f"\nA-STPM: {len(plain)} patterns, {plain.stats.n_events_pruned} events pruned; "
        f"event-level A-STPM: {len(extended)} patterns, "
        f"{extended.stats.n_events_pruned} events pruned "
        f"in {extended.stats.mining_seconds:.2f}s vs {plain.stats.mining_seconds:.2f}s"
    )
    assert extended.pattern_keys() <= plain.pattern_keys()


if __name__ == "__main__":
    main()
