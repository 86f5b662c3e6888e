"""Unit tests for the experiment harness (tables, figures, registry, CLI)."""

import io

import pytest

from repro.harness import EXPERIMENTS, Figure, Table, run_experiment
from repro.harness.cli import main as cli_main
from repro.harness.runner import run_all


class TestTable:
    def test_render_alignment(self):
        table = Table("T", ["a", "long header"], notes="note")
        table.add_row(1, 2.5)
        table.add_row("xyz", "w")
        text = table.render()
        assert "T" in text
        assert "long header" in text
        assert "2.50" in text
        assert "note" in text
        lines = [line for line in text.splitlines() if "|" in line]
        assert len({line.index("|") for line in lines}) == 1  # aligned


class TestFigure:
    def test_render_series(self):
        figure = Figure("F", x_label="x", x_values=[1, 2], y_label="secs")
        figure.add_series("A", [1.0, 2.0])
        figure.add_series("B", [2.0, 4.0])
        text = figure.render()
        assert "F" in text
        assert "#" in text  # bars
        assert "secs" in text

    def test_series_length_validated(self):
        figure = Figure("F", x_label="x", x_values=[1, 2])
        with pytest.raises(ValueError):
            figure.add_series("A", [1.0])

    def test_empty_figure_renders(self):
        assert Figure("F", x_label="x", x_values=[]).render()


class TestRegistry:
    def test_every_paper_artifact_is_registered(self):
        expected = {
            "T5", "T7", "T8", "T9", "T10", "T11", "T12", "T13", "T14", "T19",
            "F7", "F8", "F9", "F10", "F11", "F12", "F13", "F14", "F15", "F16",
            "F17", "F18", "F19", "F20", "F21", "F22", "F23", "F24", "F25", "F26",
        }
        assert expected <= set(EXPERIMENTS)

    def test_unknown_experiment(self):
        with pytest.raises(KeyError):
            run_experiment("T99")

    def test_t5_on_tiny_profile(self):
        table = run_experiment("T5", profile="tiny")
        assert isinstance(table, Table)
        assert len(table.rows) == 4

    def test_t19_epsilon_on_tiny_profile(self):
        table = run_experiment(
            "T19", profile="tiny", datasets=("INF",), epsilons=(0, 1)
        )
        rendered = table.render()
        assert "epsilon" in rendered
        # eps = 0 row has zero loss by construction.
        assert table.rows[0][-1] == "0.00"

    def test_f7_micro_sweep(self):
        figure = run_experiment("F7", profile="tiny", values=(2,))
        assert isinstance(figure, Figure)
        assert set(figure.series) == {"A-STPM", "E-STPM", "APS-growth"}

    def test_f15_micro_sweep(self):
        figure = run_experiment("F15", profile="tiny", values=(2,))
        assert set(figure.series) == {"NoPrune", "Apriori", "Trans", "All"}

    def test_runner_streams_outputs(self):
        stream = io.StringIO()
        outputs = run_all(["T5"], profile="tiny", stream=stream)
        assert "T5" in outputs
        assert "Table V" in stream.getvalue()

    def test_runner_summary_has_time_and_memory_columns(self):
        stream = io.StringIO()
        run_all(["T5"], profile="tiny", stream=stream)
        text = stream.getvalue()
        assert "Run summary" in text
        assert "Wall clock (s)" in text
        assert "Peak memory (MB)" in text

    def test_runner_summary_memory_column_optional(self):
        stream = io.StringIO()
        run_all(["T5"], profile="tiny", stream=stream, measure_memory=False)
        text = stream.getvalue()
        assert "Run summary" in text
        assert "Wall clock (s)" in text
        assert "Peak memory (MB)" not in text


class TestCli:
    def test_list(self, capsys):
        assert cli_main(["list"]) == 0
        out = capsys.readouterr().out
        assert "T9" in out and "Datasets" in out

    def test_run_t5(self, capsys):
        assert cli_main(["run", "T5", "--profile", "tiny"]) == 0
        assert "Dataset characteristics" in capsys.readouterr().out

    def test_mine(self, capsys):
        assert (
            cli_main(
                [
                    "mine", "--dataset", "INF", "--profile", "tiny",
                    "--min-season", "2", "--min-density-pct", "1.0",
                ]
            )
            == 0
        )
        assert "frequent seasonal patterns" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--max-retries", "-1"], "max_attempts must be >= 1"),
            (["--min-season", "0"], "min_season must be >= 1"),
        ],
        ids=["max-retries", "min-season"],
    )
    def test_mine_rejects_bad_flag_values(self, capsys, flags, message):
        argv = ["mine", "--dataset", "RE", "--profile", "tiny", *flags]
        assert cli_main(argv) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "ERROR" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--executor", "parallel"],
            ["--workers", "2"],
            ["--keep-pool"],
            ["--task-timeout", "5"],
        ],
        ids=["executor", "workers", "keep-pool", "task-timeout"],
    )
    def test_retired_engine_flags_are_usage_errors(self, capsys, flags):
        with pytest.raises(SystemExit) as excinfo:
            cli_main(["mine", "--dataset", "RE", "--profile", "tiny", *flags])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "usage: freqstpfts" in err
        assert f"unrecognized arguments: {' '.join(flags)}" in err

    def test_mine_approximate(self, capsys):
        assert (
            cli_main(
                [
                    "mine", "--dataset", "INF", "--profile", "tiny",
                    "--min-season", "2", "--approximate",
                ]
            )
            == 0
        )
        assert "frequent seasonal patterns" in capsys.readouterr().out

    def test_stream(self, capsys, tmp_path):
        checkpoint = tmp_path / "stream.json"
        assert (
            cli_main(
                [
                    "stream", "--dataset", "INF", "--profile", "tiny",
                    "--batch-granules", "30", "--min-season", "2",
                    "--verify", "--checkpoint", str(checkpoint),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "promoted" in out
        assert "parity verified" in out
        assert checkpoint.exists()

    def test_multigrain(self, capsys, tmp_path):
        archive = tmp_path / "multigrain.json"
        assert (
            cli_main(
                [
                    "multigrain", "--dataset", "INF", "--profile", "tiny",
                    "--multiples", "1", "2", "--min-season", "2",
                    "--min-density-pct", "1.0", "--limit", "3",
                    "--output", str(archive),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hierarchical E-STPM" in out
        assert "fold-derived from ratio" in out
        assert archive.exists()

    def test_multigrain_query_level(self, capsys, tmp_path):
        archive = tmp_path / "multigrain.json"
        assert (
            cli_main(
                [
                    "multigrain", "--dataset", "INF", "--profile", "tiny",
                    "--multiples", "1", "2", "--min-season", "2",
                    "--min-density-pct", "1.0", "--output", str(archive),
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert cli_main(["query", str(archive), "--level", "14"]) == 0
        out = capsys.readouterr().out
        assert "querying ratio 14" in out
        assert "archived patterns match" in out
        # Unknown level is a usage error, not a traceback.
        assert cli_main(["query", str(archive), "--level", "5"]) == 2
        # Without --level the finest archived level is queried.
        assert cli_main(["query", str(archive)]) == 0
        assert "querying ratio 7" in capsys.readouterr().out

    def test_query_level_rejected_on_flat_archives(self, capsys, tmp_path):
        from repro import ESTPM
        from repro.datasets import load_dataset
        from repro.io import result_to_json

        dataset = load_dataset("INF", "tiny")
        result = ESTPM(
            dataset.dseq(), dataset.params(min_season=2, min_density_pct=1.0)
        ).mine()
        path = tmp_path / "results.json"
        result_to_json(result, path)
        assert cli_main(["query", str(path), "--level", "7"]) == 2

    def test_query(self, capsys, tmp_path):
        from repro import ESTPM
        from repro.datasets import load_dataset
        from repro.io import result_to_json

        dataset = load_dataset("INF", "tiny")
        result = ESTPM(
            dataset.dseq(), dataset.params(min_season=2, min_density_pct=1.0)
        ).mine()
        path = tmp_path / "results.json"
        result_to_json(result, path)
        assert (
            cli_main(
                ["query", str(path), "--min-size", "2", "--relations", "Follows"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "archived patterns match" in out
