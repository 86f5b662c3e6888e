"""Tracing: watch where a mining run spends its time, phase by phase.

Mines the paper's Table II running example (see ``quickstart.py``) with
the telemetry layer enabled, then prints three views of the same run:

1. the nested span tree (symbolization -> sequence mapping -> step 2.1
   -> step 2.2 pair + extension kernels), each phase with its wall-clock
   and its attributes (group counts, pattern counts, granule counts);
2. the flat per-phase summary with *self* time (time in the phase minus
   its children), which answers "which phase itself is hot";
3. the mining counters (candidate groups, support intersections,
   bulk/near instance classifications, apriori rejections).

The same data is what ``freqstpfts run T9 --trace trace.json`` writes as
JSON.  Telemetry is off by default and costs nothing until enabled.

Run: ``python examples/tracing_run.py``
"""

from repro import ESTPM, MiningParams, SymbolicDatabase, build_sequence_database
from repro.obs import (
    disable_telemetry,
    enable_telemetry,
    phase_summary,
    reset_telemetry,
    summary,
    trace_tree,
)

TABLE_II = {
    "C": "110100110000000000111111000000100110000110",
    "D": "100100110110000000111111000000100100110110",
    "F": "001011001001111000000000111111001001001001",
    "M": "111100111110111111000111111111111000111000",
    "N": "110111111110111111000000111111111111111000",
}


def print_span(node: dict, depth: int = 0) -> None:
    attrs = " ".join(f"{k}={v}" for k, v in node.get("attrs", {}).items())
    print(f"  {'  ' * depth}{node['name']:<32} {node['seconds'] * 1e3:8.2f} ms  {attrs}")
    for child in node["children"]:
        print_span(child, depth + 1)


def main() -> None:
    reset_telemetry()
    enable_telemetry()
    try:
        dsyb = SymbolicDatabase.from_rows(TABLE_II)
        dseq = build_sequence_database(dsyb, ratio=3)
        params = MiningParams(
            max_period=2, min_density=3, dist_interval=(4, 10), min_season=2
        )
        result = ESTPM(dseq, params).mine()
    finally:
        disable_telemetry()

    print(f"{len(result)} frequent seasonal patterns; the run as a span tree:\n")
    for root in trace_tree():
        print_span(root)

    print("\nPer-phase summary (self = excluding child spans):\n")
    for row in phase_summary():
        print(
            f"  {row['name']:<32} calls={row['calls']:<3} "
            f"total={row['seconds'] * 1e3:8.2f} ms  "
            f"self={row['self_seconds'] * 1e3:8.2f} ms"
        )

    counters = summary()["counters"]
    print("\nMining counters:\n")
    for name in sorted(counters):
        print(f"  {name:<32} {counters[name]}")

    # The spans cover the whole pipeline and the counters saw real work.
    names = {row["name"] for row in phase_summary()}
    assert {"estpm/mine", "estpm/step2.1", "estpm/step2.2/pairs"} <= names
    assert counters["mine.groups.pair"] > 0


if __name__ == "__main__":
    main()
