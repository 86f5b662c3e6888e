"""Tests for the static contract analyzer (``repro.analysis``).

Each rule family has a bad fixture tree (true positives) and a good one
(true negatives) under ``tests/data/analysis/``; on top of those:
suppression handling, the baseline round trip, the JSON reporter schema,
the CLI surfaces, and the self-check that the shipped tree is clean
against the shipped baseline.
"""

import json
import shutil
from pathlib import Path

import pytest

from repro.analysis import ALL_RULES, Baseline, analyze, load_baseline, render_json
from repro.analysis.baseline import FIXME_JUSTIFICATION, write_baseline
from repro.analysis.engine import build_repo_index, run_rules
from repro.analysis.runner import BASELINE_FILENAME, main as lint_main
from repro.analysis.suppress import parse_suppressions
from repro.harness.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURES = Path(__file__).resolve().parent / "data" / "analysis"


def run_family(tree: str, *rules: str, baseline: Baseline | None = None):
    return analyze(FIXTURES / tree, baseline=baseline, select=rules)


def rules_hit(result) -> set[str]:
    return {finding.rule for finding in result.findings}


class TestComputeTwinRules:
    def test_bad_tree_fires_both_rules(self):
        result = run_family("ct_bad", "CT001", "CT002")
        assert rules_hit(result) == {"CT001", "CT002"}
        # Both violations are in series.py; the registry module is exempt.
        assert all("series.py" in f.path for f in result.findings)

    def test_registry_module_is_exempt(self):
        result = run_family("ct_bad", "CT001", "CT002")
        assert not any("config.py" in f.path for f in result.findings)

    def test_good_tree_is_clean(self):
        result = run_family("ct_good", "CT001", "CT002")
        assert result.ok


class TestPicklabilityRules:
    def test_bad_tree_fires_both_rules(self):
        result = run_family("ep_bad", "EP002", "EP003")
        assert rules_hit(result) == {"EP002", "EP003"}

    def test_boundary_class_names_offending_attributes(self):
        result = run_family("ep_bad", "EP002")
        (finding,) = result.findings
        assert finding.symbol == "LevelState"
        assert "_column_cache" in finding.message

    def test_good_tree_is_clean(self):
        result = run_family("ep_good", "EP002", "EP003")
        assert result.ok


class TestObsOverheadRule:
    def test_direct_access_flagged(self):
        result = run_family("ob_bad", "OB001")
        assert rules_hit(result) == {"OB001"}
        symbols = {f.symbol for f in result.findings}
        assert "registry" in symbols
        assert "Span" in symbols

    def test_guarded_helpers_pass(self):
        result = run_family("ob_good", "OB001")
        assert result.ok


class TestRegistryConformanceRules:
    def test_bad_tree_fires_both_rules(self):
        result = run_family("rc_bad", "RC003", "RC101")
        assert rules_hit(result) == {"RC003", "RC101"}

    def test_unresolved_export_and_import(self):
        result = run_family("rc_bad", "RC003", "RC101")
        by_rule = {f.rule: f for f in result.findings}
        assert "vanished" in by_rule["RC003"].message
        assert "COLUMN_GONE" in by_rule["RC101"].message

    def test_good_tree_is_clean(self):
        result = run_family("rc_good", "RC003", "RC101")
        assert result.ok


class TestSuppressions:
    def test_line_suppression_silences_finding(self):
        result = run_family("ct_suppressed", "CT001")
        assert result.ok
        assert result.suppressed == 1

    def test_parse_line_and_file_wide(self):
        source = (
            "x = 1  # repro: ignore[CT001, EP002] -- reason\n"
            "# repro: ignore-file[OB001]\n"
            "y = 2  # repro: ignore\n"
        )
        suppressions = parse_suppressions(source)
        assert suppressions.is_suppressed("CT001", 1)
        assert suppressions.is_suppressed("EP002", 1)
        assert not suppressions.is_suppressed("EP003", 1)
        assert suppressions.is_suppressed("OB001", 999)  # file-wide
        assert suppressions.is_suppressed("ANY999", 3)  # bare ignore = all

    def test_marker_inside_string_is_not_a_suppression(self):
        suppressions = parse_suppressions('text = "# repro: ignore[CT001]"\n')
        assert not suppressions.is_suppressed("CT001", 1)


class TestBaselineRoundTrip:
    def _bad_findings(self):
        repo = build_repo_index(FIXTURES / "ct_bad")
        return [f for f in run_rules(repo) if f.rule.startswith("CT")]

    def test_write_then_load_silences_findings_but_flags_fixmes(self, tmp_path):
        baseline_path = tmp_path / BASELINE_FILENAME
        write_baseline(baseline_path, self._bad_findings(), Baseline())
        baseline = load_baseline(baseline_path)
        result = run_family("ct_bad", "CT001", "CT002", baseline=baseline)
        assert not result.findings
        assert result.baselined == 2
        # FIXME placeholders must fail the run until justified.
        assert any("FIXME" in error for error in result.errors)

    def test_justified_baseline_is_clean(self, tmp_path):
        baseline_path = tmp_path / BASELINE_FILENAME
        write_baseline(baseline_path, self._bad_findings(), Baseline())
        data = json.loads(baseline_path.read_text())
        for entry in data["entries"]:
            assert entry["justification"] == FIXME_JUSTIFICATION
            entry["justification"] = "fixture: deliberately kept"
        baseline_path.write_text(json.dumps(data))
        result = run_family(
            "ct_bad", "CT001", "CT002", baseline=load_baseline(baseline_path)
        )
        assert result.ok
        assert result.baselined == 2

    def test_rewrite_preserves_existing_justifications(self, tmp_path):
        baseline_path = tmp_path / BASELINE_FILENAME
        findings = self._bad_findings()
        write_baseline(baseline_path, findings, Baseline())
        data = json.loads(baseline_path.read_text())
        data["entries"][0]["justification"] = "kept on purpose"
        baseline_path.write_text(json.dumps(data))
        write_baseline(baseline_path, findings, load_baseline(baseline_path))
        rewritten = json.loads(baseline_path.read_text())
        assert rewritten["entries"][0]["justification"] == "kept on purpose"

    def test_stale_entries_error_on_full_runs(self, tmp_path):
        baseline_path = tmp_path / BASELINE_FILENAME
        write_baseline(baseline_path, self._bad_findings(), Baseline())
        data = json.loads(baseline_path.read_text())
        for entry in data["entries"]:
            entry["justification"] = "fixture"
        baseline_path.write_text(json.dumps(data))
        # Full run (no --select) over the CLEAN tree: entries match nothing.
        result = analyze(FIXTURES / "ct_good", baseline=load_baseline(baseline_path))
        assert any("stale baseline entry" in error for error in result.errors)

    def test_malformed_baseline_rejected(self, tmp_path):
        path = tmp_path / BASELINE_FILENAME
        path.write_text(json.dumps({"entries": [{"rule": "CT001"}]}))
        with pytest.raises(ValueError):
            load_baseline(path)

    def test_baseline_keys_survive_line_moves(self, tmp_path):
        """Baseline entries match on (rule, path, symbol), not line numbers."""
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES / "ct_bad", tree)
        baseline_path = tmp_path / BASELINE_FILENAME
        repo = build_repo_index(tree)
        write_baseline(baseline_path, list(run_rules(repo)), Baseline())
        data = json.loads(baseline_path.read_text())
        for entry in data["entries"]:
            entry["justification"] = "fixture"
        baseline_path.write_text(json.dumps(data))
        series = tree / "src" / "repro" / "symbolic" / "series.py"
        series.write_text("# pushed down\n\n" + series.read_text())
        result = analyze(tree, baseline=load_baseline(baseline_path))
        assert result.ok
        assert result.baselined == 2


class TestJsonReport:
    def test_schema(self):
        result = run_family("ct_bad", "CT001", "CT002")
        payload = json.loads(render_json(result))
        assert payload["version"] == 1
        assert set(payload) == {"version", "summary", "findings", "errors"}
        assert set(payload["summary"]) == {
            "findings",
            "suppressed",
            "baselined",
            "errors",
            "files",
        }
        assert payload["summary"]["findings"] == len(payload["findings"])
        for finding in payload["findings"]:
            assert set(finding) == {"path", "line", "col", "rule", "symbol", "message"}
            assert isinstance(finding["line"], int)

    def test_findings_sorted_by_location(self):
        result = run_family("ct_bad", "CT001", "CT002")
        locations = [(f.path, f.line, f.col) for f in result.findings]
        assert locations == sorted(locations)


class TestCli:
    def test_bad_tree_exits_nonzero_with_json(self, capsys):
        code = lint_main(
            [
                "--root",
                str(FIXTURES / "ct_bad"),
                "--select",
                "CT001",
                "--format",
                "json",
                "--no-baseline",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["findings"] == 1

    def test_good_tree_exits_zero(self, capsys):
        code = lint_main(["--root", str(FIXTURES / "ct_good"), "--no-baseline"])
        assert code == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys):
        code = lint_main(
            ["--root", str(FIXTURES / "ct_good"), "--paths", "no/such/dir"]
        )
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_list_rules_covers_every_rule(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_write_baseline_flow(self, tmp_path, capsys):
        tree = tmp_path / "tree"
        shutil.copytree(FIXTURES / "ct_bad", tree)
        assert lint_main(["--root", str(tree), "--write-baseline"]) == 0
        capsys.readouterr()
        # Fails while the FIXME placeholders are in place...
        assert lint_main(["--root", str(tree)]) == 1
        capsys.readouterr()
        baseline_path = tree / BASELINE_FILENAME
        data = json.loads(baseline_path.read_text())
        for entry in data["entries"]:
            entry["justification"] = "fixture"
        baseline_path.write_text(json.dumps(data))
        # ...and passes once every entry is justified.
        assert lint_main(["--root", str(tree)]) == 0

    def test_select_accepts_family_and_commas(self, capsys):
        code = lint_main(
            [
                "--root",
                str(FIXTURES / "ct_bad"),
                "--select",
                "CT,EP",
                "--format",
                "json",
                "--no-baseline",
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        # Family CT selects both CT001 and CT002 findings of the fixture.
        assert {f["rule"] for f in payload["findings"]} == {"CT001", "CT002"}

    def test_select_unknown_token_is_usage_error(self, capsys):
        code = lint_main(
            ["--root", str(FIXTURES / "ct_good"), "--select", "XX,CT"]
        )
        assert code == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_freqstpfts_lint_delegates(self, capsys):
        assert cli_main(["lint", "--list-rules"]) == 0
        assert "CT001" in capsys.readouterr().out

    def test_rule_ids_are_unique(self):
        ids = [rule.id for rule in ALL_RULES]
        assert len(ids) == len(set(ids))


class TestSelfCheck:
    def test_shipped_tree_is_clean_against_shipped_baseline(self):
        baseline = load_baseline(REPO_ROOT / BASELINE_FILENAME)
        result = analyze(
            REPO_ROOT,
            extra_paths=["scripts", "benchmarks/_shared.py"],
            baseline=baseline,
        )
        details = [f.render() for f in result.findings] + result.errors
        assert result.ok, "shipped tree has contract violations:\n" + "\n".join(details)

    def test_shipped_baseline_entries_are_justified(self):
        baseline = load_baseline(REPO_ROOT / BASELINE_FILENAME)
        assert baseline.entries, "expected grandfathered entries in the baseline"
        for entry in baseline.entries.values():
            assert not entry.justification.startswith("FIXME")
            assert len(entry.justification) > 40, entry
