"""Command-line interface: ``freqstpfts``.

Subcommands
-----------
``list``
    List the available experiments and datasets.
``run T9 F7 --profile bench``
    Run specific experiments and print their tables/figures.
``all --profile bench``
    Run every experiment.
``mine --dataset RE --min-season 6 ...``
    One-off mining run printing the found seasonal patterns.
``multigrain --dataset RE --multiples 1 2 4 ...``
    Mine a dataset at several granularities through the hierarchical
    fold-derived engine and report which patterns persist across levels.
``stream --dataset RE --batch-granules 8 ...``
    Replay a dataset as a live stream through the incremental miner,
    printing the per-batch pattern deltas and update latencies.
``query results.json --series WindSpeed --min-size 2 ...``
    Filter an archived results JSON with the PatternQuery API
    (``--level`` selects one level of a multigrain archive).
``lint``
    Run the static contract analyzer (compute-twin, picklability,
    zero-overhead telemetry, registry conformance) over the tree; same
    engine as ``python -m repro.analysis``, see DESIGN.md ("Static
    contracts") for the rule catalog, suppression comments, and the
    baseline workflow.

Resilience
----------
Mining runs in-process, one task at a time.  ``mine`` and ``multigrain``
take ``--max-retries N``, the attempts each mining task gets: transient
task failures retry with deterministic exponential backoff, and tasks
that exhaust their attempts are quarantined into the result's
``failures`` (and re-raised, strict mode being the engine default; the
command then logs one ERROR line and exits with status 1).
They also take ``--resume PATH``, a job-progress checkpoint written
atomically as groups/levels complete; re-running the same command with
the same PATH skips the completed work.  Ctrl-C still writes
``--trace`` and exits with status 130.

Telemetry
---------
Every mining subcommand also accepts ``--log-level
debug|info|warning|error`` and ``--log-json`` (JSON-lines instead of
key=value) controlling the ``repro.*`` stderr diagnostics, plus
``--trace FILE`` which enables the span/counter telemetry for the whole
command and writes the nested span tree + counter summary as JSON when
the command finishes.  Machine-readable stdout is unaffected by all
three flags.
"""

from __future__ import annotations

import argparse
import os
import sys
from contextlib import contextmanager

from repro.core.approximate import ASTPM
from repro.core.query import PatternQuery
from repro.core.stpm import ESTPM
from repro.datasets.registry import DATASET_BUILDERS, PROFILES, load_dataset
from repro.events.relations import RELATIONS
from repro.exceptions import ConfigError, DatasetError, MiningError
from repro.harness.experiments import EXPERIMENTS, run_experiment
from repro.harness.runner import run_all
from repro.io.results_json import load_results_archive, multigrain_to_json
from repro.multigrain import (
    MINER_APPROXIMATE,
    MINER_EXACT,
    HierarchicalMiner,
    MultiGranularityResult,
)
from repro.obs import (
    disable_telemetry,
    enable_telemetry,
    reset_telemetry,
    summary as metrics_summary,
    write_trace,
)
from repro.obs.logging import LEVELS, configure_logging, get_logger
from repro.resilience import DEFAULT_RETRY_POLICY, RetryPolicy

logger = get_logger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freqstpfts",
        description="Frequent Seasonal Temporal Pattern Mining from Time Series "
        "(ICDE 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_retry_argument(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--max-retries",
            type=int,
            default=None,
            metavar="N",
            help="attempts per mining task before it is quarantined into "
            "the result's failures list (default: "
            f"{DEFAULT_RETRY_POLICY.max_attempts}; transient task errors "
            "are retried with deterministic exponential backoff)",
        )

    def add_telemetry_arguments(command_parser: argparse.ArgumentParser) -> None:
        command_parser.add_argument(
            "--log-level",
            default=None,
            choices=sorted(LEVELS),
            help="threshold for repro.* diagnostics on stderr "
            "(default: warning)",
        )
        command_parser.add_argument(
            "--log-json",
            action="store_true",
            help="emit diagnostics as JSON lines instead of key=value text",
        )
        command_parser.add_argument(
            "--trace",
            default=None,
            metavar="FILE",
            help="enable span/counter telemetry and write the trace JSON "
            "(nested span tree + counter summary) here when the command "
            "finishes",
        )

    sub.add_parser("list", help="list experiments and datasets")

    run_parser = sub.add_parser("run", help="run specific experiments")
    run_parser.add_argument("ids", nargs="+", help="experiment ids, e.g. T9 F7")
    run_parser.add_argument("--profile", default="bench", choices=sorted(PROFILES))
    add_telemetry_arguments(run_parser)

    all_parser = sub.add_parser("all", help="run every experiment")
    all_parser.add_argument("--profile", default="bench", choices=sorted(PROFILES))
    all_parser.add_argument(
        "--no-memory",
        action="store_true",
        help="skip the peak-memory column (runs untraced; tracemalloc "
        "slows mining, so use this when wall-clock numbers matter)",
    )
    add_telemetry_arguments(all_parser)

    mine_parser = sub.add_parser("mine", help="one-off mining run")
    mine_parser.add_argument("--dataset", default="RE", choices=sorted(DATASET_BUILDERS))
    mine_parser.add_argument("--profile", default="bench", choices=sorted(PROFILES))
    mine_parser.add_argument("--min-season", type=int, default=6)
    mine_parser.add_argument("--min-density-pct", type=float, default=0.75)
    mine_parser.add_argument("--max-period-pct", type=float, default=0.4)
    mine_parser.add_argument("--approximate", action="store_true", help="use A-STPM")
    mine_parser.add_argument("--limit", type=int, default=25, help="patterns to print")
    mine_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="job-progress checkpoint: completed mining groups are "
        "recorded here (written atomically) and skipped when the same "
        "command is re-run with the same PATH after a crash",
    )
    add_retry_argument(mine_parser)
    add_telemetry_arguments(mine_parser)

    multigrain_parser = sub.add_parser(
        "multigrain",
        help="mine a dataset at several granularities (hierarchical engine)",
    )
    multigrain_parser.add_argument(
        "--dataset", default="RE", choices=sorted(DATASET_BUILDERS)
    )
    multigrain_parser.add_argument(
        "--profile", default="tiny", choices=sorted(PROFILES)
    )
    multigrain_parser.add_argument(
        "--multiples", type=int, nargs="+", default=[1, 2, 4], metavar="M",
        help="hierarchy levels as multiples of the dataset's own sequence "
        "ratio (1 = the dataset's native granularity)",
    )
    multigrain_parser.add_argument("--min-season", type=int, default=4)
    multigrain_parser.add_argument("--min-density-pct", type=float, default=0.75)
    multigrain_parser.add_argument("--max-period-pct", type=float, default=0.4)
    multigrain_parser.add_argument(
        "--approximate", action="store_true", help="mine each level with A-STPM"
    )
    multigrain_parser.add_argument(
        "--output", default=None, metavar="PATH",
        help="archive the multi-level result as JSON (query with --level)",
    )
    multigrain_parser.add_argument(
        "--limit", type=int, default=10, help="persistent patterns to print"
    )
    multigrain_parser.add_argument(
        "--resume", default=None, metavar="PATH",
        help="job-progress checkpoint: completed hierarchy levels are "
        "recorded here (written atomically) and skipped when the same "
        "command is re-run with the same PATH after a crash",
    )
    add_retry_argument(multigrain_parser)
    add_telemetry_arguments(multigrain_parser)

    stream_parser = sub.add_parser(
        "stream", help="replay a dataset as a live stream (incremental mining)"
    )
    stream_parser.add_argument(
        "--dataset", default="RE", choices=sorted(DATASET_BUILDERS)
    )
    stream_parser.add_argument("--profile", default="tiny", choices=sorted(PROFILES))
    stream_parser.add_argument(
        "--batch-granules", type=int, default=8,
        help="granules ingested per stream batch",
    )
    stream_parser.add_argument(
        "--initial-granules", type=int, default=None,
        help="granules in the warm-up window (default: one batch)",
    )
    stream_parser.add_argument("--min-season", type=int, default=6)
    stream_parser.add_argument("--min-density-pct", type=float, default=0.75)
    stream_parser.add_argument("--max-period-pct", type=float, default=0.4)
    stream_parser.add_argument(
        "--reanchor-every", type=int, default=None,
        help="verify batch parity every N advances (paranoia knob)",
    )
    stream_parser.add_argument(
        "--verify", action="store_true",
        help="assert batch parity once at the end of the stream",
    )
    stream_parser.add_argument(
        "--checkpoint", default=None, metavar="PATH",
        help="write a stream checkpoint JSON at the end",
    )
    stream_parser.add_argument("--limit", type=int, default=10, help="patterns to print")
    add_telemetry_arguments(stream_parser)

    query_parser = sub.add_parser(
        "query", help="filter an archived results JSON (PatternQuery)"
    )
    query_parser.add_argument("results", help="path to a results JSON archive")
    query_parser.add_argument(
        "--events", nargs="*", default=[], metavar="EVENT",
        help="require every listed event (series:symbol)",
    )
    query_parser.add_argument(
        "--series", nargs="*", default=[], metavar="SERIES",
        help="require at least one event of every listed series",
    )
    query_parser.add_argument(
        "--relations", nargs="*", default=[], choices=sorted(RELATIONS),
        help="require every listed relation type",
    )
    query_parser.add_argument("--min-size", type=int, default=1)
    query_parser.add_argument("--max-size", type=int, default=None)
    query_parser.add_argument("--min-seasons", type=int, default=0)
    query_parser.add_argument(
        "--level", type=int, default=None, metavar="RATIO",
        help="for multigrain archives: query the level mined at this ratio "
        "(default: the finest archived level)",
    )
    query_parser.add_argument("--limit", type=int, default=25, help="patterns to print")

    sub.add_parser(
        "lint",
        help="run the static contract analyzer (python -m repro.analysis)",
        add_help=False,
    )
    return parser


def _retry_policy(args) -> RetryPolicy | None:
    """The :class:`RetryPolicy` of ``--max-retries``, else ``None``.

    An invalid value (e.g. ``--max-retries 0``) reaches the policy
    constructor and is rejected there (:func:`main` reports it and
    exits 2), not silently reinterpreted.
    """
    if args.max_retries is None:
        return None
    return RetryPolicy(max_attempts=args.max_retries)


@contextmanager
def _telemetry(args):
    """Configure logging and (when ``--trace`` is set) span/counter telemetry.

    Logging is configured for every subcommand (``list``/``query`` have no
    telemetry flags, so they get the defaults).  The trace file is written
    on the way out even when the command fails, so aborted runs still leave
    the spans collected up to the failure.  The ``all`` subcommand routes
    its trace through :func:`repro.harness.runner.run_all`'s own
    ``trace_path`` hook instead, exercising the harness-level integration.
    """
    configure_logging(
        level=getattr(args, "log_level", None) or "warning",
        json_lines=getattr(args, "log_json", False),
    )
    trace_path = getattr(args, "trace", None)
    own_trace = trace_path if args.command != "all" else None
    if own_trace is not None:
        reset_telemetry()
        enable_telemetry()
    try:
        yield
    finally:
        if own_trace is not None:
            path = write_trace(
                own_trace, command=args.command, counters=metrics_summary()
            )
            disable_telemetry()
            logger.info("trace written", extra={"path": str(path)})


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    raw = sys.argv[1:] if argv is None else list(argv)
    if raw[:1] == ["lint"]:
        # Delegate everything after `lint` to the analyzer's own parser
        # (it has its own --help/--paths/--format surface).
        from repro.analysis.runner import main as lint_main

        return lint_main(raw[1:])
    args = _build_parser().parse_args(raw)
    try:
        with _telemetry(args):
            status = _dispatch(args)
            # Flushed here, so a reader that closed stdout early
            # surfaces below, not in the interpreter's final flush.
            sys.stdout.flush()
            return status
    except BrokenPipeError:
        # stdout closed early (``freqstpfts ... | head -1``).  Point
        # fd 1 at devnull so the final flush cannot raise again, and
        # exit with the conventional SIGPIPE status (128 + 13).
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (ConfigError, DatasetError) as exc:
        # A flag value argparse cannot vet (``--max-retries 0``,
        # ``--min-season 0``, ...) or an unusable input: a usage error,
        # reported like ``--multiples`` and ``--level`` are.
        logger.error("%s", exc)
        return 2
    except MiningError as exc:
        # A strict run whose task failed after all its retries: a run
        # failure, not a usage error.
        logger.error("%s", exc)
        return 1
    except KeyboardInterrupt:
        # _telemetry's finally has written the partial --trace file; all
        # that is left is the conventional SIGINT exit status.
        logger.warning("interrupted")
        return 130


def _dispatch(args) -> int:
    """Route parsed arguments to the subcommand implementation."""
    if args.command == "list":
        print("Experiments:")
        for artifact_id in sorted(EXPERIMENTS):
            doc = (EXPERIMENTS[artifact_id].__doc__ or "").strip().splitlines()[0]
            print(f"  {artifact_id:5s} {doc}")
        print("\nDatasets:", ", ".join(sorted(DATASET_BUILDERS)))
        print("Profiles:", ", ".join(sorted(PROFILES)))
        return 0
    if args.command == "run":
        for artifact_id in args.ids:
            print(run_experiment(artifact_id, profile=args.profile).render())
            print()
        return 0
    if args.command == "all":
        run_all(
            profile=args.profile,
            measure_memory=not args.no_memory,
            trace_path=args.trace,
        )
        return 0
    if args.command == "mine":
        dataset = load_dataset(args.dataset, args.profile)
        params = dataset.params(
            max_period_pct=args.max_period_pct,
            min_density_pct=args.min_density_pct,
            min_season=args.min_season,
        )
        engine = {"retry": _retry_policy(args), "checkpoint_path": args.resume}
        if args.approximate:
            result = ASTPM(
                dataset.dsyb, dataset.ratio, params, dseq=dataset.dseq(), **engine
            ).mine()
        else:
            result = ESTPM(dataset.dseq(), params, **engine).mine()
        print(
            f"{len(result)} frequent seasonal patterns on {args.dataset} "
            f"({args.profile}) in {result.stats.mining_seconds:.2f}s"
        )
        print(result.describe(limit=args.limit))
        return 0
    if args.command == "multigrain":
        return _run_multigrain(args)
    if args.command == "stream":
        return _run_stream(args)
    if args.command == "query":
        return _run_query(args)
    return 1  # pragma: no cover - argparse enforces the choices


def _run_multigrain(args) -> int:
    """The ``multigrain`` subcommand: hierarchical multi-level mining."""
    dataset = load_dataset(args.dataset, args.profile)
    ratios = sorted({dataset.ratio * multiple for multiple in args.multiples})
    if any(multiple < 1 for multiple in args.multiples):
        logger.error("--multiples must be >= 1")
        return 2
    # The dataset's dist interval is expressed in its own sequence
    # granules; the hierarchy spec wants fine granules (DSYB instants).
    dist_interval = (
        dataset.dist_interval[0] * dataset.ratio,
        dataset.dist_interval[1] * dataset.ratio,
    )
    miner = HierarchicalMiner(
        dataset.dsyb,
        ratios=ratios,
        max_period_pct=args.max_period_pct,
        min_density_pct=args.min_density_pct,
        dist_interval=dist_interval,
        min_season=args.min_season,
        miner=MINER_APPROXIMATE if args.approximate else MINER_EXACT,
        retry=_retry_policy(args),
        checkpoint_path=args.resume,
    )
    result = miner.mine()
    print(
        f"hierarchical {'A-STPM' if args.approximate else 'E-STPM'} on "
        f"{args.dataset} ({args.profile}): {len(result)} levels in "
        f"{result.total_seconds:.2f}s"
    )
    print(result.describe(limit=args.limit))
    if args.output:
        multigrain_to_json(result, args.output)
        print(f"multigrain archive written to {args.output}")
    return 0


def _run_stream(args) -> int:
    """The ``stream`` subcommand: dataset replay through the live miner."""
    from repro.streaming import replay_dataset

    dataset = load_dataset(args.dataset, args.profile)
    params = dataset.params(
        max_period_pct=args.max_period_pct,
        min_density_pct=args.min_density_pct,
        min_season=args.min_season,
    )
    print(
        f"streaming {args.dataset} ({args.profile}): "
        f"{dataset.n_sequences} granules in batches of {args.batch_granules}"
    )
    service = None
    total_seconds = 0.0
    for service, delta in replay_dataset(
        dataset,
        params,
        batch_granules=args.batch_granules,
        initial_granules=args.initial_granules,
        reanchor_every=args.reanchor_every,
    ):
        total_seconds += delta.seconds
        print(f"  {delta.describe()}")
    result = service.result()
    print(
        f"{len(result)} frequent seasonal patterns after {service.n_granules} "
        f"granules ({total_seconds:.2f}s total incremental mining, "
        f"{len(service.border_patterns())} border patterns)"
    )
    print(result.describe(limit=args.limit))
    if args.verify:
        service.verify_parity()
        print("parity verified: streaming result == batch E-STPM")
    if args.checkpoint:
        service.save_checkpoint(args.checkpoint)
        print(f"checkpoint written to {args.checkpoint}")
    return 0


def _run_query(args) -> int:
    """The ``query`` subcommand: PatternQuery over an archived result."""
    archive = load_results_archive(args.results)
    if isinstance(archive, MultiGranularityResult):
        ratio = args.level if args.level is not None else archive.ratios[0]
        if ratio not in archive.ratios:
            logger.error(
                "no archived level at ratio %s; available: %s",
                ratio,
                archive.ratios,
            )
            return 2
        result = archive.level(ratio).result
        print(
            f"multigrain archive (levels at ratios {archive.ratios}); "
            f"querying ratio {ratio}"
        )
    else:
        if args.level is not None:
            logger.error("--level only applies to multigrain archives")
            return 2
        result = archive
    query = PatternQuery().min_size(args.min_size).min_seasons(args.min_seasons)
    if args.max_size is not None:
        query = query.max_size(args.max_size)
    if args.events:
        query = query.with_events(*args.events)
    if args.series:
        query = query.with_series(*args.series)
    if args.relations:
        query = query.with_relations(*args.relations)
    matched = query.run(result)
    print(f"{len(matched)} of {len(result)} archived patterns match")
    for sp in matched[: args.limit]:
        print(f"  {sp.describe()}")
    if len(matched) > args.limit:
        print(f"  ... and {len(matched) - args.limit} more")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
