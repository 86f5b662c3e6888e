"""Experiment definitions: one entry per table/figure of the paper.

Every experiment is a function ``(profile, **overrides) -> Table | Figure``
registered in :data:`EXPERIMENTS` under the paper's artifact id (``T7`` =
Table VII, ``F7`` = Fig. 7, ...).  Default parameter sweeps are scaled to
the ``bench`` dataset profiles so each experiment finishes in tens of
seconds on a laptop; the paper's full grids can be requested through the
keyword overrides.

The *shape* each experiment must reproduce (vs the paper) is documented in
DESIGN.md section 9 and checked into EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Callable

from repro.baselines.apsgrowth import APSGrowth
from repro.core.approximate import ASTPM
from repro.core.config import MiningParams
from repro.core.prune import ALL_VARIANTS
from repro.core.results import MiningResult
from repro.core.stpm import ESTPM
from repro.datasets.dataset import Dataset
from repro.datasets.registry import DATASET_BUILDERS, PROFILES, load_dataset
from repro.datasets.scaling import scale_series
from repro.events.relations import RelationConfig
from repro.harness.calendar_map import describe_seasonal_occurrence
from repro.harness.figures import Figure
from repro.harness.tables import Table
from repro.metrics.accuracy import accuracy_pct
from repro.metrics.memory import measure_peak_memory
from repro.metrics.timing import time_call

#: Default sweeps, scaled to the bench profiles (paper values in comments).
MIN_SEASONS = (4, 6, 8)  # paper: 4, 8, 12, 16, 20
MIN_DENSITY_PCTS = (0.5, 0.75, 1.0)  # paper: 0.5 .. 1.5
MAX_PERIOD_PCTS = (0.2, 0.4, 0.6)  # paper: 0.2 .. 1.0
DEFAULTS = {"min_season": 6, "min_density_pct": 0.75, "max_period_pct": 0.4}


def _params(dataset: Dataset, **overrides) -> MiningParams:
    merged = {**DEFAULTS, **overrides}
    return dataset.params(
        max_period_pct=merged["max_period_pct"],
        min_density_pct=merged["min_density_pct"],
        min_season=merged["min_season"],
    )


def _mine_exact(dataset: Dataset, params: MiningParams) -> MiningResult:
    return ESTPM(dataset.dseq(), params).mine()


def _mine_approx(dataset: Dataset, params: MiningParams) -> MiningResult:
    return ASTPM(dataset.dsyb, dataset.ratio, params, dseq=dataset.dseq()).mine()


def _mine_baseline(dataset: Dataset, params: MiningParams) -> MiningResult:
    return APSGrowth(dataset.dseq(), params).mine()

MINERS: dict[str, Callable[[Dataset, MiningParams], MiningResult]] = {
    "A-STPM": _mine_approx,
    "E-STPM": _mine_exact,
    "APS-growth": _mine_baseline,
}


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

def table5_datasets(profile: str = "bench", **_) -> Table:
    """Table V: characteristics of the datasets."""
    table = Table(
        title=f"Table V -- Dataset characteristics ({profile} profile)",
        headers=["Dataset", "#seq.", "#time series", "#events", "#ins./seq."],
    )
    for name in DATASET_BUILDERS:
        summary = load_dataset(name, profile).summary()
        table.add_row(
            name,
            summary["n_sequences"],
            summary["n_time_series"],
            summary["n_events"],
            summary["instances_per_sequence"],
        )
    return table


def table7_accuracy_real(
    profile: str = "bench",
    datasets: tuple[str, ...] = ("RE", "INF"),
    min_seasons: tuple[int, ...] = MIN_SEASONS,
    min_density_pcts: tuple[float, ...] = (0.5, 1.0),
    **_,
) -> Table:
    """Table VII: A-STPM accuracy vs E-STPM on the real-shaped datasets."""
    headers = ["minSeason"] + [
        f"{name} md={md}%" for name in datasets for md in min_density_pcts
    ]
    table = Table(
        title="Table VII -- A-STPM accuracy (%) vs E-STPM",
        headers=headers,
        notes="Shape vs paper: accuracy rises with minSeason and minDensity, reaching 100.",
    )
    loaded = {name: load_dataset(name, profile) for name in datasets}
    for min_season in min_seasons:
        cells: list = [min_season]
        for name in datasets:
            dataset = loaded[name]
            for md in min_density_pcts:
                params = _params(dataset, min_season=min_season, min_density_pct=md)
                exact = _mine_exact(dataset, params)
                approx = _mine_approx(dataset, params)
                cells.append(round(accuracy_pct(exact, approx)))
        table.add_row(*cells)
    return table


#: Events whose patterns Table VIII highlights, per dataset.
_QUALITATIVE_FOCUS = {
    "RE": ("WindPower", "SolarPower", "Demand", "HydroPower"),
    "SC": ("Congestion", "LaneBlocked", "FlowIncident", "AvgSpeed"),
    "INF": ("InfluenzaCases", "InfluenzaA", "ILIVisits"),
    "HFM": ("HFMCases", "PediatricVisits", "CasesUnder2"),
}


def table8_qualitative(
    profile: str = "bench",
    datasets: tuple[str, ...] = ("RE", "SC", "INF", "HFM"),
    per_dataset: int = 3,
    **_,
) -> Table:
    """Table VIII: interesting seasonal patterns found per dataset."""
    table = Table(
        title="Table VIII -- Interesting seasonal patterns",
        headers=["Dataset", "Pattern", "#seasons", "#events", "Seasonal occurrence"],
        notes="Shape vs paper: domain patterns couple drivers to responses "
        "(wind->wind power, cold+humid->influenza, storms->incidents).",
    )
    for name in datasets:
        dataset = load_dataset(name, profile)
        params = _params(dataset, min_season=4, min_density_pct=0.5)
        result = _mine_exact(dataset, params)
        focus = _QUALITATIVE_FOCUS.get(name, ())
        interesting = [
            sp
            for sp in result.patterns
            if sp.size >= 2
            and any(event.startswith(series) for series in focus for event in sp.pattern.events)
        ]
        interesting.sort(key=lambda sp: (-sp.size, -sp.n_seasons))
        for sp in interesting[:per_dataset]:
            table.add_row(
                name,
                sp.pattern.describe(),
                sp.n_seasons,
                sp.size,
                describe_seasonal_occurrence(sp.seasons, dataset.sequence_unit),
            )
    return table


def _counts_table(
    artifact: str,
    dataset_name: str,
    profile: str,
    max_period_pcts: tuple[float, ...],
    grid: tuple[tuple[int, float], ...],
) -> Table:
    dataset = load_dataset(dataset_name, profile)
    headers = ["maxPeriod (%)"] + [f"{ms}-{md}" for ms, md in grid]
    table = Table(
        title=f"{artifact} -- Number of seasonal patterns on {dataset_name}",
        headers=headers,
        notes="Columns are minSeason-minDensity(%). Shape vs paper: counts fall "
        "with minSeason/minDensity and rise with maxPeriod.",
    )
    for mp in max_period_pcts:
        cells: list = [mp]
        for min_season, md in grid:
            params = _params(
                dataset, min_season=min_season, min_density_pct=md, max_period_pct=mp
            )
            cells.append(len(_mine_exact(dataset, params)))
        table.add_row(*cells)
    return table


def table9_counts_re(profile: str = "bench", **kw) -> Table:
    """Table IX: #seasonal patterns on RE over the threshold grid."""
    return _counts_table(
        "Table IX", "RE", profile,
        kw.get("max_period_pcts", MAX_PERIOD_PCTS),
        kw.get("grid", ((4, 0.5), (4, 1.0), (6, 0.5), (6, 1.0), (8, 0.5), (8, 1.0))),
    )


def table10_counts_inf(profile: str = "bench", **kw) -> Table:
    """Table X: #seasonal patterns on INF over the threshold grid."""
    return _counts_table(
        "Table X", "INF", profile,
        kw.get("max_period_pcts", MAX_PERIOD_PCTS),
        kw.get("grid", ((4, 0.5), (4, 1.0), (6, 0.5), (6, 1.0), (8, 0.5), (8, 1.0))),
    )


def table13_counts_sc(profile: str = "bench", **kw) -> Table:
    """Table XIII (appendix): #seasonal patterns on SC."""
    return _counts_table(
        "Table XIII", "SC", profile,
        kw.get("max_period_pcts", MAX_PERIOD_PCTS),
        kw.get("grid", ((4, 0.5), (4, 1.0), (6, 0.5), (6, 1.0), (8, 0.5), (8, 1.0))),
    )


def table14_counts_hfm(profile: str = "bench", **kw) -> Table:
    """Table XIV (appendix): #seasonal patterns on HFM."""
    return _counts_table(
        "Table XIV", "HFM", profile,
        kw.get("max_period_pcts", MAX_PERIOD_PCTS),
        kw.get("grid", ((4, 0.5), (4, 1.0), (6, 0.5), (6, 1.0), (8, 0.5), (8, 1.0))),
    )


def table11_pruned(
    profile: str = "bench",
    datasets: tuple[str, ...] = ("RE", "INF"),
    series_counts: tuple[int, ...] = (12, 16, 20),
    settings: tuple[tuple[int, float], ...] = ((4, 0.5), (6, 0.75), (8, 1.0)),
    **_,
) -> Table:
    """Tables XI/XV/XVI: % series and events pruned by A-STPM at scale."""
    headers = ["#series"] + [
        f"{name} {kind} {ms}-{md}"
        for name in datasets
        for kind in ("serie%", "event%")
        for ms, md in settings
    ]
    table = Table(
        title="Table XI -- Pruned time series and events from A-STPM (synthetic scale-up)",
        headers=headers,
        notes="Shape vs paper: pruned %% falls as #series grows and as "
        "minSeason/minDensity rise (lower thresholds -> higher mu).",
    )
    bases = {name: load_dataset(name, profile) for name in datasets}
    for count in series_counts:
        cells: list = [count]
        for name in datasets:
            scaled = scale_series(bases[name], count, seed=300 + count)
            dseq = scaled.dseq()
            all_events = dseq.events()
            for ms, md in settings:
                params = _params(scaled, min_season=ms, min_density_pct=md)
                report = ASTPM(scaled.dsyb, scaled.ratio, params, dseq=dseq).screening()
                pruned_names = set(report.pruned_series)
                pruned_events = sum(
                    1
                    for event in all_events
                    if event.rsplit(":", 1)[0] in pruned_names
                )
                cells.append(round(report.pruned_series_pct(), 1))
                cells.append(round(100.0 * pruned_events / max(len(all_events), 1), 1))
        table.add_row(*cells)
    return table


def table12_accuracy_synthetic(
    profile: str = "bench",
    datasets: tuple[str, ...] = ("RE", "INF"),
    series_counts: tuple[int, ...] = (12, 16),
    settings: tuple[tuple[int, float], ...] = ((4, 0.5), (6, 0.75), (8, 1.0)),
    **_,
) -> Table:
    """Tables XII/XVIII: A-STPM accuracy on the synthetic scale-up."""
    headers = ["#series"] + [
        f"{name} {ms}-{md}" for name in datasets for ms, md in settings
    ]
    table = Table(
        title="Table XII -- A-STPM accuracy (%) on synthetic scale-up",
        headers=headers,
        notes="Shape vs paper: accuracy rises with minSeason/minDensity, reaching 100.",
    )
    bases = {name: load_dataset(name, profile) for name in datasets}
    for count in series_counts:
        cells: list = [count]
        for name in datasets:
            scaled = scale_series(bases[name], count, seed=300 + count)
            for ms, md in settings:
                params = _params(scaled, min_season=ms, min_density_pct=md)
                exact = _mine_exact(scaled, params)
                approx = _mine_approx(scaled, params)
                cells.append(round(accuracy_pct(exact, approx)))
        table.add_row(*cells)
    return table


def table19_epsilon(
    profile: str = "bench",
    datasets: tuple[str, ...] = ("RE", "INF"),
    epsilons: tuple[int, ...] = (0, 1, 2),
    **_,
) -> Table:
    """Tables XIX/XX: tolerance buffer sensitivity (pattern loss vs eps=0)."""
    headers = ["epsilon"] + [
        f"{name} {kind}" for name in datasets for kind in ("#patterns", "loss%")
    ]
    table = Table(
        title="Tables XIX/XX -- Extracted patterns vs tolerance buffer epsilon",
        headers=headers,
        notes="epsilon in fine granules. Shape vs paper: losses stay within a "
        "few percent for small epsilon.",
    )
    loaded = {name: load_dataset(name, profile) for name in datasets}
    baselines: dict[str, set] = {}
    rows: list[list] = []
    for eps in epsilons:
        cells: list = [eps]
        for name in datasets:
            dataset = loaded[name]
            base_params = _params(dataset, min_season=4, min_density_pct=0.5)
            params = base_params.with_updates(
                relation=RelationConfig(epsilon=eps, min_overlap=1)
            )
            result = _mine_exact(dataset, params)
            keys = result.pattern_keys()
            if name not in baselines:
                baselines[name] = keys
            reference = baselines[name]
            lost = len(reference - keys)
            loss_pct = 100.0 * lost / max(len(reference), 1)
            cells.extend([len(keys), round(loss_pct, 2)])
        rows.append(cells)
    for cells in rows:
        table.add_row(*cells)
    return table


# ---------------------------------------------------------------------------
# Figures
# ---------------------------------------------------------------------------

_VARY_VALUES = {
    "min_season": MIN_SEASONS,
    "min_density_pct": MIN_DENSITY_PCTS,
    "max_period_pct": MAX_PERIOD_PCTS,
}
_VARY_LABEL = {
    "min_season": "minSeason",
    "min_density_pct": "minDensity (%)",
    "max_period_pct": "maxPeriod (%)",
}


def _comparison_figure(
    artifact: str,
    dataset_name: str,
    profile: str,
    vary: str,
    values: tuple | None,
    measure: str,
) -> Figure:
    dataset = load_dataset(dataset_name, profile)
    xs = list(values if values is not None else _VARY_VALUES[vary])
    figure = Figure(
        title=f"{artifact} -- {measure} comparison on {dataset_name} (varying {_VARY_LABEL[vary]})",
        x_label=_VARY_LABEL[vary],
        x_values=xs,
        y_label="runtime (s)" if measure == "Runtime" else "peak memory (MB)",
        notes="Shape vs paper: A-STPM < E-STPM < APS-growth.",
    )
    for miner_name, miner in MINERS.items():
        points: list[float] = []
        for value in xs:
            params = _params(dataset, **{vary: value})
            if measure == "Runtime":
                _, elapsed = time_call(lambda: miner(dataset, params))
                points.append(elapsed)
            else:
                _, peak = measure_peak_memory(lambda: miner(dataset, params))
                points.append(peak / 1e6)
        figure.add_series(miner_name, points)
    return figure


def fig7_runtime_re(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 7: runtime comparison on RE."""
    return _comparison_figure("Fig. 7", "RE", profile, vary, values, "Runtime")


def fig8_runtime_inf(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 8: runtime comparison on INF."""
    return _comparison_figure("Fig. 8", "INF", profile, vary, values, "Runtime")


def fig17_runtime_sc(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 17 (appendix): runtime comparison on SC."""
    return _comparison_figure("Fig. 17", "SC", profile, vary, values, "Runtime")


def fig18_runtime_hfm(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 18 (appendix): runtime comparison on HFM."""
    return _comparison_figure("Fig. 18", "HFM", profile, vary, values, "Runtime")


def fig9_memory_re(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 9: memory comparison on RE."""
    return _comparison_figure("Fig. 9", "RE", profile, vary, values, "Memory")


def fig10_memory_inf(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 10: memory comparison on INF."""
    return _comparison_figure("Fig. 10", "INF", profile, vary, values, "Memory")


def fig19_memory_sc(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 19 (appendix): memory comparison on SC."""
    return _comparison_figure("Fig. 19", "SC", profile, vary, values, "Memory")


def fig20_memory_hfm(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 20 (appendix): memory comparison on HFM."""
    return _comparison_figure("Fig. 20", "HFM", profile, vary, values, "Memory")


def _scalability_sequences(
    artifact: str,
    dataset_name: str,
    profile: str,
    fractions: tuple[float, ...],
) -> Figure:
    base_sequences, n_series = PROFILES[profile][dataset_name]
    builder = DATASET_BUILDERS[dataset_name]
    xs = [int(round(100 * f)) for f in fractions]
    figure = Figure(
        title=f"{artifact} -- Scalability on {dataset_name}: varying #sequences",
        x_label="#sequences (%)",
        x_values=xs,
        y_label="runtime (s)",
        notes="Shape vs paper: all miners grow with #sequences; the baseline "
        "grows fastest (it rescans DSEQ per group and keeps all occurrences).",
    )
    datasets = [
        builder(n_sequences=max(int(base_sequences * f), 8), n_series=n_series)
        for f in fractions
    ]
    for miner_name, miner in MINERS.items():
        points: list[float] = []
        for dataset in datasets:
            params = _params(dataset)
            _, elapsed = time_call(lambda: miner(dataset, params))
            points.append(elapsed)
        figure.add_series(miner_name, points)
    return figure


def fig11_scal_seq_re(profile: str = "bench", fractions=(0.25, 0.5, 0.75, 1.0), **_) -> Figure:
    """Fig. 11: runtime vs #sequences on synthetic RE."""
    return _scalability_sequences("Fig. 11", "RE", profile, fractions)


def fig12_scal_seq_inf(profile: str = "bench", fractions=(0.25, 0.5, 0.75, 1.0), **_) -> Figure:
    """Fig. 12: runtime vs #sequences on synthetic INF."""
    return _scalability_sequences("Fig. 12", "INF", profile, fractions)


def fig21_scal_seq_sc(profile: str = "bench", fractions=(0.25, 0.5, 0.75, 1.0), **_) -> Figure:
    """Fig. 21 (appendix): runtime vs #sequences on synthetic SC."""
    return _scalability_sequences("Fig. 21", "SC", profile, fractions)


def fig22_scal_seq_hfm(profile: str = "bench", fractions=(0.25, 0.5, 0.75, 1.0), **_) -> Figure:
    """Fig. 22 (appendix): runtime vs #sequences on synthetic HFM."""
    return _scalability_sequences("Fig. 22", "HFM", profile, fractions)


def _scalability_series(
    artifact: str,
    dataset_name: str,
    profile: str,
    series_counts: tuple[int, ...],
) -> Figure:
    base = load_dataset(dataset_name, profile)
    figure = Figure(
        title=f"{artifact} -- Scalability on {dataset_name}: varying #time series",
        x_label="#time series",
        x_values=list(series_counts),
        y_label="runtime (s)",
        notes="Shape vs paper: runtime grows with #series; A-STPM grows slowest "
        "(MI screening prunes the added uncorrelated series).",
    )
    datasets = [
        scale_series(base, count, seed=300 + count) for count in series_counts
    ]
    for miner_name, miner in MINERS.items():
        points: list[float] = []
        for dataset in datasets:
            params = _params(dataset)
            _, elapsed = time_call(lambda: miner(dataset, params))
            points.append(elapsed)
        figure.add_series(miner_name, points)
    return figure


def fig13_scal_series_re(profile: str = "bench", series_counts=(10, 14, 18), **_) -> Figure:
    """Fig. 13: runtime vs #time series on synthetic RE."""
    return _scalability_series("Fig. 13", "RE", profile, series_counts)


def fig14_scal_series_inf(profile: str = "bench", series_counts=(10, 14, 18), **_) -> Figure:
    """Fig. 14: runtime vs #time series on synthetic INF."""
    return _scalability_series("Fig. 14", "INF", profile, series_counts)


def fig23_scal_series_sc(profile: str = "bench", series_counts=(10, 14, 18), **_) -> Figure:
    """Fig. 23 (appendix): runtime vs #time series on synthetic SC."""
    return _scalability_series("Fig. 23", "SC", profile, series_counts)


def fig24_scal_series_hfm(profile: str = "bench", series_counts=(10, 14, 18), **_) -> Figure:
    """Fig. 24 (appendix): runtime vs #time series on synthetic HFM."""
    return _scalability_series("Fig. 24", "HFM", profile, series_counts)


def _pruning_figure(
    artifact: str,
    dataset_name: str,
    profile: str,
    vary: str,
    values: tuple | None,
) -> Figure:
    dataset = load_dataset(dataset_name, profile)
    xs = list(values if values is not None else _VARY_VALUES[vary])
    figure = Figure(
        title=f"{artifact} -- E-STPM pruning ablation on {dataset_name} (varying {_VARY_LABEL[vary]})",
        x_label=_VARY_LABEL[vary],
        x_values=xs,
        y_label="runtime (s)",
        notes="Shape vs paper: All <= Trans, Apriori <= NoPrune; both prunings "
        "combined win. Apriori here gates on the season-chain bound, tighter than "
        "the paper's maxSeason, so its candidate counts are not the paper's.",
    )
    for pruning in ALL_VARIANTS:
        points: list[float] = []
        for value in xs:
            params = _params(dataset, **{vary: value})
            _, elapsed = time_call(
                lambda: ESTPM(dataset.dseq(), params, pruning).mine()
            )
            points.append(elapsed)
        figure.add_series(pruning.label, points)
    return figure


def fig15_pruning_re(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 15: pruning-technique ablation on RE."""
    return _pruning_figure("Fig. 15", "RE", profile, vary, values)


def fig16_pruning_inf(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 16: pruning-technique ablation on INF."""
    return _pruning_figure("Fig. 16", "INF", profile, vary, values)


def fig25_pruning_sc(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 25 (appendix): pruning-technique ablation on SC."""
    return _pruning_figure("Fig. 25", "SC", profile, vary, values)


def fig26_pruning_hfm(profile: str = "bench", vary: str = "min_season", values=None, **_) -> Figure:
    """Fig. 26 (appendix): pruning-technique ablation on HFM."""
    return _pruning_figure("Fig. 26", "HFM", profile, vary, values)


def ext1_event_level_astpm(
    profile: str = "bench",
    datasets: tuple[str, ...] = ("RE", "INF"),
    min_seasons: tuple[int, ...] = (4, 8),
    **_,
) -> Table:
    """EXT1 (extension): event-level A-STPM vs plain A-STPM.

    The paper's future work proposes pruning at the event level; this
    ablation reports the extra events pruned, the runtime effect and the
    accuracy cost relative to the exact result.
    """
    headers = ["Dataset", "minSeason", "A patterns", "A+ev patterns",
               "A acc%", "A+ev acc%", "A secs", "A+ev secs", "extra events pruned"]
    table = Table(
        title="EXT1 -- Event-level pruning extension of A-STPM (paper future work)",
        headers=headers,
        notes="A+ev = A-STPM with event-level screening.  Expected shape: a "
        "subset of A-STPM's patterns at equal or lower runtime; the gap "
        "grows with minSeason (stricter mu certification).",
    )
    for name in datasets:
        dataset = load_dataset(name, profile)
        dseq = dataset.dseq()
        for min_season in min_seasons:
            params = _params(dataset, min_season=min_season)
            exact = _mine_exact(dataset, params)
            plain, plain_seconds = time_call(
                lambda: ASTPM(dataset.dsyb, dataset.ratio, params, dseq=dseq).mine()
            )
            extended, extended_seconds = time_call(
                lambda: ASTPM(
                    dataset.dsyb, dataset.ratio, params, dseq=dseq, event_level=True
                ).mine()
            )
            table.add_row(
                name,
                min_season,
                len(plain),
                len(extended),
                round(accuracy_pct(exact, plain)),
                round(accuracy_pct(exact, extended)),
                round(plain_seconds, 2),
                round(extended_seconds, 2),
                extended.stats.n_events_pruned - plain.stats.n_events_pruned,
            )
    return table


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: dict[str, Callable] = {
    "T5": table5_datasets,
    "T7": table7_accuracy_real,
    "T8": table8_qualitative,
    "T9": table9_counts_re,
    "T10": table10_counts_inf,
    "T11": table11_pruned,
    "T12": table12_accuracy_synthetic,
    "T13": table13_counts_sc,
    "T14": table14_counts_hfm,
    "T19": table19_epsilon,
    "EXT1": ext1_event_level_astpm,
    "F7": fig7_runtime_re,
    "F8": fig8_runtime_inf,
    "F9": fig9_memory_re,
    "F10": fig10_memory_inf,
    "F11": fig11_scal_seq_re,
    "F12": fig12_scal_seq_inf,
    "F13": fig13_scal_series_re,
    "F14": fig14_scal_series_inf,
    "F15": fig15_pruning_re,
    "F16": fig16_pruning_inf,
    "F17": fig17_runtime_sc,
    "F18": fig18_runtime_hfm,
    "F19": fig19_memory_sc,
    "F20": fig20_memory_hfm,
    "F21": fig21_scal_seq_sc,
    "F22": fig22_scal_seq_hfm,
    "F23": fig23_scal_series_sc,
    "F24": fig24_scal_series_hfm,
    "F25": fig25_pruning_sc,
    "F26": fig26_pruning_hfm,
}


def run_experiment(artifact_id: str, profile: str = "bench", **overrides):
    """Run one experiment by its paper artifact id."""
    key = artifact_id.upper()
    if key not in EXPERIMENTS:
        raise KeyError(
            f"unknown experiment {artifact_id!r}; choose from {sorted(EXPERIMENTS)}"
        )
    return EXPERIMENTS[key](profile=profile, **overrides)
