"""The benchmark's workloads: input generation, the timed jobs, output
digests, validation samples and per-layer attribution.

``spec.json`` holds the sizes, thresholds and default seeds as data;
this module turns one ``(workload, seed, scale)`` into inputs and runs
jobs on them through the public ``repro`` API with every engine default
(kernel, front end, support backend, compute backend, serial executor).

Each job wraps its calls into a layer in a ``bench/<layer>`` span.
Spans cost nothing while tracing is off, so traced and untraced jobs run
the same code; :func:`attribute` turns the spans of a traced job into
per-layer seconds.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import numpy as np
from repro import (
    ESTPM,
    HierarchicalMiner,
    MiningParams,
    QuantileMapper,
    StreamingDatabase,
    StreamingMiningService,
    SymbolicDatabase,
    TimeSeries,
    build_sequence_database,
)
from repro.core.validation import validate_seasonal_pattern
from repro.exceptions import MiningError
from repro.datasets.energy import build_re
from repro.datasets.health import build_inf
from repro.datasets.scaling import scale_series
from repro.multigrain.engine import resolve_level_params
from repro.obs import span

SPEC = json.loads((Path(__file__).resolve().parent / "spec.json").read_text())

#: Program and benchmark span names -> the per-layer seconds metric their
#: self time counts towards.  Self time of any other span (the job root)
#: is unattributed.
SPAN_LAYERS = {
    "bench/symbolic.encode": "symbolic.encode_s",
    "bench/transform.build_dseq": "transform.build_dseq_s",
    "transform/build_dseq": "transform.build_dseq_s",
    "estpm/step2.1": "core.step21_s",
    "estpm/step2.1/hlh1_scan": "core.step21_s",
    "estpm/step2.1/season_gate": "core.step21_s",
    "estpm/step2.2/pairs": "core.pairs_s",
    "estpm/step2.2/extend": "core.extend_s",
    "bench/core.mine": "core.mine_other_s",
    "estpm/mine": "core.mine_other_s",
    "bench/multigrain.mine": "multigrain.levels_s",
    "multigrain/mine": "multigrain.levels_s",
    "multigrain/level": "multigrain.levels_s",
    "multigrain/build_jobs": "multigrain.build_jobs_s",
    "bench/streaming.push_symbols": "streaming.ingest_s",
    "stream/advance": "streaming.advance_s",
}


def _pattern_line(sp) -> str:
    pattern = sp.pattern
    return f"{'/'.join(pattern.events)}|{pattern.describe()}|{','.join(map(str, sp.support))}"


def result_digest(patterns) -> str:
    """Canonical digest of a set of seasonal patterns: sorted patterns
    with their support sets, independent of the order the miner used."""
    lines = sorted(_pattern_line(sp) for sp in patterns)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _sample(items: list, limit: int | None, seed: int) -> list:
    if limit is None or len(items) <= limit:
        return list(items)
    return random.Random(seed).sample(items, limit)


def jittered(raw: dict, seed: int, amount: float) -> dict:
    """The raw series plus Gaussian jitter of ``amount`` times each
    series' standard deviation, drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    return {
        name: values + rng.normal(0.0, amount * float(values.std()), len(values))
        for name, values in raw.items()
    }


def _encode(raw: dict, alphabets: dict) -> SymbolicDatabase:
    database = SymbolicDatabase()
    for name, values in raw.items():
        database.add(QuantileMapper(alphabets[name]).encode(TimeSeries.from_array(name, values)))
    return database


class BatchWorkload:
    """A workload whose op is one whole job from raw inputs to result."""

    kind = "batch"

    def __init__(self, name: str, seed: int, scale: str):
        spec = SPEC["workloads"][name]
        self.name = name
        self.seed = seed
        self.base_seed = spec["base_seed"]
        self.jitter = spec["jitter"]
        self.size = spec["scales"][scale]
        self.config = spec["params"]
        self.validate_limit = spec["validate_sample"]

    def run(self):
        """One timed job; returns what :meth:`digest` and :meth:`validate` read."""
        raise NotImplementedError

    def digest(self, output) -> str:
        return result_digest(output.result.patterns)

    def n_patterns(self, output) -> int:
        return len(output.result.patterns)

    def validate(self, output, limit: int | None) -> list[str]:
        """Problems ``validate_seasonal_pattern`` finds in ``limit`` sampled
        patterns, or in every pattern when ``limit`` is None (slow)."""
        return [
            problem
            for sp in _sample(output.result.patterns, limit, self.seed)
            for problem in validate_seasonal_pattern(sp, output.dseq, output.params)
        ]

    def counts(self, output, counters: dict) -> dict:
        """Per-layer counts of one traced job."""
        stats = output.result.stats
        groups3 = stats.n_groups_generated.get(3, 0)
        candidates3 = stats.n_candidate_patterns.get(3, 0)
        dseq = output.dseq
        columns = sum(len(support) for support in dseq.event_support().values())
        return {
            "transform.runs": counters.get("frontend.columnar.runs", 0),
            "transform.instances_per_column": counters.get("frontend.columnar.runs", 0)
            / max(columns, 1),
            "core.events_candidate": stats.n_candidate_events,
            "core.events_frequent": stats.n_frequent.get(1, 0),
            "core.groups_k2": stats.n_groups_generated.get(2, 0),
            "core.candidates_k2": stats.n_candidate_patterns.get(2, 0),
            "core.groups_k3": groups3,
            "core.group_pass_k3": stats.n_candidate_groups.get(3, 0) / groups3 if groups3 else 0.0,
            "core.candidates_k3": candidates3,
            "core.frequent_k3": stats.n_frequent.get(3, 0),
            "core.frequent_per_candidate": (
                stats.n_frequent.get(3, 0) / candidates3 if candidates3 else 0.0
            ),
        }


class MinedOutput:
    """The result of one E-STPM job plus the DSEQ it was mined from."""

    __slots__ = ("dseq", "result", "params")

    def __init__(self, dseq, result, params):
        self.dseq = dseq
        self.result = result
        self.params = params


class EstpmRe(BatchWorkload):
    """RE raw series -> encode -> DSEQ -> E-STPM."""

    def __init__(self, name: str, seed: int, scale: str):
        super().__init__(name, seed, scale)
        dataset = build_re(
            n_sequences=self.size["n_sequences"],
            n_series=self.size["n_series"],
            seed=self.base_seed,
        )
        self.raw = jittered(dataset.raw, seed, self.jitter)
        self.alphabets = {series.name: series.alphabet for series in dataset.dsyb}
        self.ratio = dataset.ratio
        self.params = dataset.params(**self.config)

    def run(self) -> MinedOutput:
        with span("bench/symbolic.encode"):
            dsyb = _encode(self.raw, self.alphabets)
        with span("bench/transform.build_dseq"):
            dseq = build_sequence_database(dsyb, self.ratio)
        with span("bench/core.mine"):
            result = ESTPM(dseq, self.params).mine()
        return MinedOutput(dseq, result, self.params)


def dense_rows(n_series: int, n_instants: int, base_seed: int, seed: int, flips: float):
    """Binary series of short alternating runs drawn from ``base_seed``
    (every (event, granule) column of a large-ratio DSEQ holds many
    instances), with a ``flips`` share of the symbols toggled by ``seed``."""
    base = random.Random(base_seed)
    jitter = random.Random(seed)
    rows = {}
    for index in range(n_series):
        symbols: list[str] = []
        while len(symbols) < n_instants:
            symbols.extend(base.choice("01") * base.randint(1, 3))
        symbols = symbols[:n_instants]
        for position in jitter.sample(range(n_instants), round(flips * n_instants)):
            symbols[position] = "1" if symbols[position] == "0" else "0"
        rows[f"S{index}"] = "".join(symbols)
    return rows


class EstpmDense(BatchWorkload):
    """Dense symbolic rows -> DSEQ -> E-STPM."""

    def __init__(self, name: str, seed: int, scale: str):
        super().__init__(name, seed, scale)
        self.rows = dense_rows(
            self.size["n_series"], self.size["n_instants"], self.base_seed, seed, self.jitter
        )
        self.ratio = self.size["ratio"]
        config = dict(self.config)
        config["dist_interval"] = tuple(config["dist_interval"])
        self.params = MiningParams(**config)

    def run(self) -> MinedOutput:
        with span("bench/symbolic.encode"):
            dsyb = SymbolicDatabase.from_rows(self.rows)
        with span("bench/transform.build_dseq"):
            dseq = build_sequence_database(dsyb, self.ratio)
        with span("bench/core.mine"):
            result = ESTPM(dseq, self.params).mine()
        return MinedOutput(dseq, result, self.params)


class HierarchyOutput:
    """The result of one hierarchy job plus the DSYB it was mined from."""

    __slots__ = ("dsyb", "result")

    def __init__(self, dsyb, result):
        self.dsyb = dsyb
        self.result = result


class MultigrainEvents(BatchWorkload):
    """RE extended to many series -> encode -> HierarchicalMiner (fold)."""

    def __init__(self, name: str, seed: int, scale: str):
        super().__init__(name, seed, scale)
        re_seed, scale_seed = self.base_seed
        base = build_re(
            n_sequences=self.size["n_sequences"],
            n_series=self.size["n_base_series"],
            seed=re_seed,
        )
        dataset = scale_series(base, self.size["n_series"], seed=scale_seed)
        self.raw = jittered(dataset.raw, seed, self.jitter)
        self.alphabets = {series.name: series.alphabet for series in dataset.dsyb}
        self.ratio = dataset.ratio
        low, high = self.config["dist_interval_days"]
        self.settings = {
            "ratios": [self.ratio * multiple for multiple in self.config["multiples"]],
            "dist_interval": (low * self.ratio, high * self.ratio),
            **{
                key: self.config[key]
                for key in ("max_period_pct", "min_density_pct", "min_season", "max_pattern_length")
            },
        }

    def run(self) -> HierarchyOutput:
        with span("bench/symbolic.encode"):
            dsyb = _encode(self.raw, self.alphabets)
        with span("bench/multigrain.mine"):
            result = HierarchicalMiner(dsyb, **self.settings).mine()
        return HierarchyOutput(dsyb, result)

    def digest(self, output: HierarchyOutput) -> str:
        parts = [
            f"{level.ratio}:{result_digest(level.result.patterns)}"
            for level in output.result.levels
        ]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()

    def n_patterns(self, output: HierarchyOutput) -> int:
        return sum(len(level.result.patterns) for level in output.result.levels)

    def validate(self, output: HierarchyOutput, limit: int | None) -> list[str]:
        """Validate ``limit`` patterns of two sampled levels, or every
        pattern of every level when ``limit`` is None."""
        problems: list[str] = []
        levels = output.result.levels
        for level in levels if limit is None else _sample(levels, 2, self.seed):
            params = resolve_level_params(
                ratio=level.ratio,
                n_sequences=level.n_sequences,
                max_period_pct=self.settings["max_period_pct"],
                min_density_pct=self.settings["min_density_pct"],
                dist_interval=self.settings["dist_interval"],
                min_season=self.settings["min_season"],
                max_pattern_length=self.settings["max_pattern_length"],
            )
            if params != level.params:
                problems.append(f"level {level.ratio}: params {level.params} != {params}")
                continue
            dseq = build_sequence_database(output.dsyb, level.ratio)
            for sp in _sample(level.result.patterns, limit, self.seed):
                problems.extend(validate_seasonal_pattern(sp, dseq, params))
        return problems

    def counts(self, output: HierarchyOutput, counters: dict) -> dict:
        levels = output.result.levels
        base = build_sequence_database(output.dsyb, levels[0].ratio)
        columns = sum(len(support) for support in base.event_support().values())
        runs = counters.get("frontend.columnar.runs", 0)
        return {
            "transform.runs": runs,
            "transform.instances_per_column": runs / max(columns, 1),
            "core.events_candidate": sum(level.result.stats.n_candidate_events for level in levels),
            "core.events_frequent": sum(
                level.result.stats.n_frequent.get(1, 0) for level in levels
            ),
            "multigrain.granules_skipped": sum(level.n_granules_skipped for level in levels),
        }


class StreamInf:
    """INF symbols -> a warm StreamingMiningService -> one-granule pushes.

    A job is one live phase: every push of :attr:`blocks` into a service
    warmed with the first ``warmup_granules`` granules.  Each push is an op.
    """

    kind = "stream"

    def __init__(self, name: str, seed: int, scale: str):
        spec = SPEC["workloads"][name]
        self.name = name
        self.seed = seed
        size = spec["scales"][scale]
        self.validate_limit = spec["validate_sample"]
        dataset = build_inf(
            n_sequences=size["n_sequences"], n_series=size["n_series"], seed=spec["base_seed"]
        )
        self.params = dataset.params(**spec["params"])
        self.ratio = dataset.ratio
        self.alphabets = {series.name: series.alphabet for series in dataset.dsyb}
        dsyb = _encode(jittered(dataset.raw, seed, spec["jitter"]), self.alphabets)
        streams = {series.name: series.symbols for series in dsyb}
        warm = size["warmup_granules"] * self.ratio
        self.warmup = {name: symbols[:warm] for name, symbols in streams.items()}
        self.blocks = [
            {
                name: symbols[warm + index * self.ratio : warm + (index + 1) * self.ratio]
                for name, symbols in streams.items()
            }
            for index in range(size["pushes"])
        ]

    def warm(self) -> StreamingMiningService:
        """A fresh service that has mined the warm-up window."""
        service = StreamingMiningService(StreamingDatabase(self.ratio, self.alphabets), self.params)
        service.push_symbols(self.warmup)
        return service

    @staticmethod
    def push(service: StreamingMiningService, block: dict):
        with span("bench/streaming.push_symbols"):
            return service.push_symbols(block)

    @staticmethod
    def delta_digest(delta) -> str:
        parts = [str(delta.n_granules), str(delta.new_granules)]
        parts += ["+" + line for line in sorted(map(_pattern_line, delta.promoted))]
        parts += ["~" + line for line in sorted(map(_pattern_line, delta.updated))]
        parts += ["-" + repr(pattern) for pattern in delta.demoted]
        return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]

    def final_digest(self, service: StreamingMiningService) -> str:
        return result_digest(service.result().patterns)

    def validate(self, service: StreamingMiningService, limit: int | None) -> list[str]:
        """verify_parity against batch E-STPM, then validate a sample (or
        every pattern when ``limit`` is None) of the streamed result."""
        try:
            service.verify_parity()
        except MiningError as error:
            return [f"verify_parity: {error}"]
        dseq = service.database.dseq
        return [
            problem
            for sp in _sample(service.result().patterns, limit, self.seed)
            for problem in validate_seasonal_pattern(sp, dseq, self.params)
        ]

    @staticmethod
    def counts(counters: dict) -> dict:
        return {
            "streaming.promoted": counters.get("stream.patterns.promoted", 0),
            "streaming.updated": counters.get("stream.patterns.updated", 0),
        }


WORKLOAD_CLASSES = {
    "estpm-re": EstpmRe,
    "estpm-dense": EstpmDense,
    "multigrain-events-re200": MultigrainEvents,
    "stream-inf": StreamInf,
}


def make(name: str, seed: int, scale: str):
    """Generate the inputs of one workload from its seed."""
    return WORKLOAD_CLASSES[name](name, seed, scale)


#: Counters the program emits through ``repro.obs``, by per-layer metric.
COUNTER_METRICS = {
    "core.assignments_k2": "mine.pairs.recorded",
    "core.assignments_k3": "mine.extensions.recorded",
    "kernel.pairs_bulk": "kernel.pairs.bulk",
    "kernel.pairs_near": "kernel.pairs.near_classified",
    "core.support_intersections": "mine.support.intersections",
    "executor.retries": "executor.retries",
    "executor.quarantined": "executor.quarantined",
}


def attribute(root_dicts: list[dict]) -> dict[str, float]:
    """Per-layer self seconds of a traced job's span trees."""
    layers: dict[str, float] = {}
    stack = list(root_dicts)
    while stack:
        node = stack.pop()
        children = node.get("children", [])
        layer = SPAN_LAYERS.get(node["name"])
        if layer is not None:
            own = node["seconds"] - sum(child["seconds"] for child in children)
            layers[layer] = layers.get(layer, 0.0) + own
        stack.extend(children)
    return layers
