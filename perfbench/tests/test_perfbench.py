"""Tests of the end-to-end benchmark itself (not collected by tier-1).

Run with ``python -m pytest perfbench/tests -q`` from the repository root.
Every run here uses the ``tiny`` input scale and a one-second budget.
"""

from __future__ import annotations

import json
import pickle
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SPEC = json.loads((BENCH / "spec.json").read_text())
WORKLOADS = list(SPEC["workloads"])
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(tmp_path: Path, *args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--results-dir", str(tmp_path / "results"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_metric_with_its_unit(tmp_path, workload, trace):
    proc = bench(tmp_path, "--workload", workload, "--scale", "tiny", "--seconds", "1",
                 "--trace", str(trace))
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    report = proc.stdout.splitlines()[:-1]
    for metric in declared:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert isinstance(value["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in report), metric["name"]
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in declared)
    history = (tmp_path / "results" / "history.jsonl").read_text().splitlines()
    entry = json.loads(history[-1])
    for key in ("commit", "seed", "nproc", "python", "numpy", "env"):
        assert key in entry
    assert entry["env"]["PYTHONHASHSEED"] == "0"


@pytest.mark.parametrize("workload", ["estpm-re", "stream-inf"])
def test_corrupted_digest_fails_every_op(tmp_path, workload):
    digests = json.loads((BENCH / "digests.json").read_text())
    record = digests[workload]["tiny"]
    record["digests"] = ["0" * len(digest) for digest in record["digests"]]
    corrupted = tmp_path / "digests.json"
    corrupted.write_text(json.dumps(digests))
    result = last_json(bench(tmp_path, "--workload", workload, "--scale", "tiny",
                             "--seconds", "1", "--digests", str(corrupted)))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1


def _inputs(workload) -> bytes:
    for attribute in ("raw", "rows", "blocks"):
        if hasattr(workload, attribute):
            return pickle.dumps(getattr(workload, attribute))
    raise AssertionError(f"{workload.name} has no inputs attribute")


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_decides_the_inputs(name):
    first = _inputs(workloads.make(name, 1, "tiny"))
    assert _inputs(workloads.make(name, 1, "tiny")) == first
    assert _inputs(workloads.make(name, 2, "tiny")) != first


def test_majority_check_fails_the_odd_op_out():
    job = {"seconds": 1.0, "traced": False}
    children = [
        {"problems": [], "jobs": [{**job, "digests": ["a"]}, {**job, "digests": ["a"]}]},
        {"problems": [], "jobs": [{**job, "digests": ["b"]}]},
    ]
    assert run.score("batch", children, None)[:2] == (3, 1)
    children[0]["problems"] = ["validation failed"]
    assert run.score("batch", children, None)[:2] == (3, 3)
    assert run.score("batch", children[1:], {"digests": ["b"]})[:2] == (1, 0)


def test_benchmark_json_follows_the_contract():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                              "per_layer"}
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert [w["name"] for w in BENCHMARK["workloads"]] == WORKLOADS
    for entry in BENCHMARK["workloads"]:
        assert set(entry) == {"name", "why"}
        assert entry["why"] == SPEC["workloads"][entry["name"]]["why"]
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
    for metric in BENCHMARK["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and UNIT.match(metric["unit"])
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == [
        (name, meta["unit"]) for name, meta in SPEC["end_to_end"].items()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == [
        (name, meta["unit"], meta["better"]) for name, meta in SPEC["per_layer"].items()
    ]
    for name, meta in SPEC["per_layer"].items():
        for metric, workload in meta["moves"]:
            assert metric in {*bounds, "fail_frac", "push_p50_ms", "push_p95_ms"}, name
            assert workload == "*" or workload in WORKLOADS, name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = bench(tmp_path, "--workload", "estpm-re", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
