"""Unit tests for CSV ingestion and JSON result serialization."""

import json

import pytest

from repro import ESTPM
from repro.exceptions import DatasetError, ReproError
from repro.io import (
    load_csv_series,
    load_results_archive,
    multigrain_from_json,
    multigrain_to_json,
    result_from_json,
    result_to_json,
    save_csv_series,
)
from repro.symbolic import TimeSeries


class TestCsv:
    def test_roundtrip(self, tmp_path):
        series = [
            TimeSeries("A", (1.0, 2.0, 3.5)),
            TimeSeries("B", (0.25, -1.0, 9.0)),
        ]
        path = tmp_path / "data.csv"
        save_csv_series(series, path)
        loaded = load_csv_series(path)
        assert [s.name for s in loaded] == ["A", "B"]
        assert loaded[0].values == (1.0, 2.0, 3.5)
        assert loaded[1].values == (0.25, -1.0, 9.0)

    def test_skip_columns(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("ts,A\n2020-01-01,1.5\n2020-01-02,2.5\n")
        loaded = load_csv_series(path, skip_columns=1)
        assert len(loaded) == 1
        assert loaded[0].values == (1.5, 2.5)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_csv_series(tmp_path / "missing.csv")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DatasetError):
            load_csv_series(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("A,B\n")
        with pytest.raises(DatasetError):
            load_csv_series(path)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("A,B\n1,2\n3\n")
        with pytest.raises(DatasetError) as excinfo:
            load_csv_series(path)
        assert ":3:" in str(excinfo.value)

    def test_non_numeric_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("A\n1.0\noops\n")
        with pytest.raises(DatasetError) as excinfo:
            load_csv_series(path)
        assert "oops" in str(excinfo.value)

    def test_save_validates(self, tmp_path):
        with pytest.raises(DatasetError):
            save_csv_series([], tmp_path / "x.csv")
        with pytest.raises(DatasetError):
            save_csv_series(
                [TimeSeries("A", (1.0,)), TimeSeries("B", (1.0, 2.0))],
                tmp_path / "x.csv",
            )


class TestResultJson:
    def test_roundtrip(self, paper_dseq, paper_params):
        result = ESTPM(paper_dseq, paper_params).mine()
        restored = result_from_json(result_to_json(result))
        assert restored.pattern_keys() == result.pattern_keys()
        assert len(restored) == len(result)
        for original, loaded in zip(result.patterns, restored.patterns):
            assert loaded.support == original.support
            assert loaded.seasons.seasons == original.seasons.seasons
        assert restored.stats.n_granules == result.stats.n_granules
        assert restored.stats.n_frequent == result.stats.n_frequent

    def test_file_roundtrip(self, paper_dseq, paper_params, tmp_path):
        result = ESTPM(paper_dseq, paper_params).mine()
        path = tmp_path / "result.json"
        result_to_json(result, path)
        restored = result_from_json(path)
        assert restored.pattern_keys() == result.pattern_keys()

    def test_invalid_json_rejected(self):
        with pytest.raises(ReproError):
            result_from_json("{not json")

    def test_version_checked(self):
        payload = json.dumps({"format_version": 999, "patterns": []})
        with pytest.raises(ReproError) as excinfo:
            result_from_json(payload)
        assert "999" in str(excinfo.value)

    def test_missing_version_rejected(self):
        with pytest.raises(ReproError) as excinfo:
            result_from_json(json.dumps({"patterns": []}))
        assert "version" in str(excinfo.value)

    def test_non_object_payload_rejected(self):
        # A JSON array used to die on payload.get with an AttributeError.
        with pytest.raises(ReproError) as excinfo:
            result_from_json(json.dumps([1, 2, 3]))
        assert "object" in str(excinfo.value)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ReproError) as excinfo:
            result_from_json(tmp_path / "nope.json")
        assert "cannot read" in str(excinfo.value)

    def test_malformed_pattern_rejected(self):
        payload = json.dumps(
            {"format_version": 1, "patterns": [{"events": ["A:1"]}]}
        )
        with pytest.raises(ReproError) as excinfo:
            result_from_json(payload)
        assert "malformed" in str(excinfo.value)

    def test_malformed_stats_rejected(self):
        payload = json.dumps(
            {"format_version": 1, "patterns": [], "stats": {"n_frequent": {"x": 1}}}
        )
        with pytest.raises(ReproError):
            result_from_json(payload)

    def test_output_is_stable_json(self, paper_dseq, paper_params):
        result = ESTPM(paper_dseq, paper_params).mine()
        first = result_to_json(result)
        second = result_to_json(result)
        assert first == second
        parsed = json.loads(first)
        assert parsed["format_version"] == 1


class TestMultigrainJson:
    @pytest.fixture(scope="class")
    def hierarchical(self, paper_dsyb):
        from repro.multigrain import HierarchicalMiner

        return HierarchicalMiner(
            paper_dsyb, ratios=[3, 6], dist_interval=(0, 42), min_season=1
        ).mine()

    def test_roundtrip(self, hierarchical):
        restored = multigrain_from_json(multigrain_to_json(hierarchical))
        assert restored.ratios == hierarchical.ratios
        for original, loaded in zip(hierarchical.levels, restored.levels):
            assert loaded.n_sequences == original.n_sequences
            assert loaded.derived_from == original.derived_from
            assert loaded.params == original.params
            assert loaded.result.pattern_keys() == original.result.pattern_keys()
            assert (
                loaded.result.seasonal_map() == original.result.seasonal_map()
            )
        assert restored.persistence() == hierarchical.persistence()

    def test_file_roundtrip(self, hierarchical, tmp_path):
        path = tmp_path / "multigrain.json"
        multigrain_to_json(hierarchical, path)
        restored = multigrain_from_json(path)
        assert restored.ratios == hierarchical.ratios

    def test_loads_archives_carrying_screening_counts(self, hierarchical):
        # 1.20 and older wrote a per-level ``n_events_screened`` count.
        payload = json.loads(multigrain_to_json(hierarchical))
        for entry in payload["levels"]:
            entry["n_events_screened"] = 1
        restored = multigrain_from_json(json.dumps(payload))
        assert restored.ratios == hierarchical.ratios
        for original, loaded in zip(hierarchical.levels, restored.levels):
            assert loaded.n_granules_skipped == original.n_granules_skipped
            assert loaded.result.pattern_keys() == original.result.pattern_keys()

    def test_result_loader_rejects_multigrain_archives(self, hierarchical):
        text = multigrain_to_json(hierarchical)
        with pytest.raises(ReproError) as excinfo:
            result_from_json(text)
        assert "multigrain" in str(excinfo.value)

    def test_multigrain_loader_rejects_flat_archives(
        self, paper_dseq, paper_params
    ):
        text = result_to_json(ESTPM(paper_dseq, paper_params).mine())
        with pytest.raises(ReproError) as excinfo:
            multigrain_from_json(text)
        assert "not a multigrain" in str(excinfo.value)

    def test_empty_levels_rejected(self):
        payload = json.dumps(
            {"format_version": 1, "kind": "multigrain", "levels": []}
        )
        with pytest.raises(ReproError) as excinfo:
            multigrain_from_json(payload)
        assert "no levels" in str(excinfo.value)

    def test_malformed_level_rejected(self, hierarchical):
        payload = json.loads(multigrain_to_json(hierarchical))
        del payload["levels"][0]["params"]["max_period"]
        with pytest.raises(ReproError) as excinfo:
            multigrain_from_json(json.dumps(payload))
        assert "malformed" in str(excinfo.value)

    def test_load_results_archive_sniffs_both_kinds(
        self, hierarchical, paper_dseq, paper_params
    ):
        from repro.core.results import MiningResult
        from repro.multigrain import MultiGranularityResult

        flat = load_results_archive(
            result_to_json(ESTPM(paper_dseq, paper_params).mine())
        )
        assert isinstance(flat, MiningResult)
        multi = load_results_archive(multigrain_to_json(hierarchical))
        assert isinstance(multi, MultiGranularityResult)
