"""The telemetry layer: counters, spans, logging, and cross-process merge.

The two guarantees worth their own suites:

* **Parity.**  The ``mine.*`` / ``kernel.*`` counters are identical
  whether the mining work ran in-process, in a thread pool, or in a
  process pool -- worker-side counts ship back in the task envelope and
  merge losslessly (tested on every seed dataset).  The exception is
  ``kernel.extend.verdict_rows``, which counts work per verdict store
  and so grows with the number of processes filling one.
* **Zero cost when off.**  With telemetry disabled, the instrumented
  hot paths allocate nothing in the obs modules and ``span()`` returns
  one shared singleton.
"""

import io
import json
import logging as stdlib_logging
import pickle
import threading
import tracemalloc
from pathlib import Path

import pytest

import repro.obs
from repro.core.executor import ParallelExecutor
from repro.core.results import results_equivalent
from repro.core.stpm import ESTPM
from repro.datasets import load_dataset
from repro.obs import counters
from repro.obs import trace
from repro.obs.counters import Histogram, MetricRegistry, capture
from repro.obs.logging import (
    JsonLinesFormatter,
    KeyValueFormatter,
    configure_logging,
    get_logger,
)
from repro.obs.trace import phase_summary, reset_trace, span, trace_tree, write_trace


@pytest.fixture(autouse=True)
def _telemetry_off():
    """Every test starts and ends with telemetry globally disabled."""
    repro.obs.disable_telemetry()
    repro.obs.reset_telemetry()
    yield
    repro.obs.disable_telemetry()
    repro.obs.reset_telemetry()


class TestCounters:
    def test_disabled_calls_record_nothing(self):
        counters.inc("mine.groups.pair")
        counters.set_gauge("x", 1.0)
        counters.observe("y", 2.0)
        assert counters.summary() == {
            "counters": {},
            "gauges": {},
            "histograms": {},
        }

    def test_enabled_recording_and_summary(self):
        counters.enable_metrics()
        counters.inc("a", 2)
        counters.inc("a")
        counters.set_gauge("g", 7.5)
        counters.observe("h", 3.0)
        counters.observe("h", 5.0)
        snapshot = counters.summary()
        assert snapshot["counters"] == {"a": 3}
        assert snapshot["gauges"] == {"g": 7.5}
        assert snapshot["histograms"]["h"]["count"] == 2
        assert snapshot["histograms"]["h"]["mean"] == 4.0

    def test_capture_isolates_and_restores(self):
        counters.enable_metrics()
        counters.inc("outer")
        with capture() as captured:
            counters.inc("inner")
            assert captured.counters == {"inner": 1}
        assert counters.summary()["counters"] == {"outer": 1}

    def test_capture_force_enables_for_spawn_workers(self):
        assert not counters.metrics_enabled()
        with capture() as captured:
            assert counters.metrics_enabled()
            counters.inc("worker.side")
        assert not counters.metrics_enabled()
        assert captured.counters == {"worker.side": 1}

    def test_merge_folds_a_shipped_snapshot(self):
        shipped = MetricRegistry()
        shipped.inc("a", 5)
        shipped.observe("h", 2.0)
        counters.enable_metrics()
        counters.inc("a")
        counters.observe("h", 8.0)
        counters.merge(shipped.snapshot())
        snapshot = counters.summary()
        assert snapshot["counters"] == {"a": 6}
        histogram = snapshot["histograms"]["h"]
        assert histogram["count"] == 2
        assert histogram["min"] == 2.0
        assert histogram["max"] == 8.0

    def test_histogram_merge_is_exact(self):
        left, right = Histogram(), Histogram()
        values = [0.5, 1.0, 3.0, 64.0, 1000.0]
        for value in values[:2]:
            left.observe(value)
        for value in values[2:]:
            right.observe(value)
        left.merge(right.as_dict())
        combined = Histogram()
        for value in values:
            combined.observe(value)
        assert left.as_dict() == combined.as_dict()

    def test_snapshot_pickles(self):
        registry = MetricRegistry()
        registry.inc("a")
        registry.observe("h", 4.2)
        registry.set_gauge("g", 1.0)
        snapshot = registry.snapshot()
        assert pickle.loads(pickle.dumps(snapshot)) == snapshot
        json.dumps(snapshot)  # and it is JSON-able as written


class TestTrace:
    def test_disabled_span_is_one_shared_singleton(self):
        assert span("estpm/mine") is span("anything/else", attr=1)
        with span("noop") as sp:
            sp.set(ignored=True)
        assert trace_tree() == []

    def test_spans_nest_into_a_tree(self):
        trace.enable_tracing()
        with span("outer", level=1) as outer:
            with span("inner"):
                pass
            outer.set(discovered="late")
        (root,) = trace_tree()
        assert root["name"] == "outer"
        assert root["attrs"] == {"level": 1, "discovered": "late"}
        assert [child["name"] for child in root["children"]] == ["inner"]
        assert root["seconds"] >= root["children"][0]["seconds"] >= 0.0

    def test_each_thread_gets_its_own_stack(self):
        trace.enable_tracing()

        def worker():
            with span("thread-root"):
                pass

        with span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        names = sorted(root["name"] for root in trace_tree())
        # The thread's span completed while main-root was open, yet it
        # is a root of its own, not a child of the main thread's span.
        assert names == ["main-root", "thread-root"]

    def test_memory_span_records_a_peak(self):
        trace.enable_tracing()
        with span("alloc", memory=True):
            block = [0] * 200_000
            del block
        (root,) = trace_tree()
        assert root["memory_peak_bytes"] > 200_000 * 4
        assert not tracemalloc.is_tracing()

    def test_phase_summary_separates_self_time(self):
        trace.enable_tracing()
        with span("outer"), span("inner"):
            pass
        rows = {row["name"]: row for row in phase_summary()}
        assert rows["outer"]["calls"] == 1
        assert rows["inner"]["seconds"] <= rows["outer"]["seconds"]
        assert (
            rows["outer"]["self_seconds"]
            == pytest.approx(rows["outer"]["seconds"] - rows["inner"]["seconds"])
        )

    def test_write_trace_schema(self, tmp_path):
        trace.enable_tracing()
        with span("root", k=2):
            pass
        target = write_trace(
            tmp_path / "trace.json", command="unit", counters=counters.summary()
        )
        payload = json.loads(target.read_text())
        assert payload["version"] == trace.TRACE_VERSION
        assert payload["command"] == "unit"
        assert payload["spans"][0]["name"] == "root"
        assert payload["spans"][0]["attrs"] == {"k": 2}
        assert payload["summary"][0]["name"] == "root"
        assert set(payload["counters"]) == {"counters", "gauges", "histograms"}

    def test_reset_trace_clears_roots(self):
        trace.enable_tracing()
        with span("gone"):
            pass
        reset_trace()
        assert trace_tree() == []


class TestLogging:
    def _configured(self, **kwargs):
        stream = io.StringIO()
        configure_logging(stream=stream, **kwargs)
        return stream

    def teardown_method(self):
        # Return the repro hierarchy to its stderr default after each test.
        configure_logging()

    def test_key_value_format(self):
        stream = self._configured(level="info")
        get_logger("harness.cli").info(
            "pool spawned", extra={"workers": 4, "backend": "parallel"}
        )
        line = stream.getvalue().strip()
        assert " INFO repro.harness.cli pool spawned " in line
        assert "backend=parallel" in line and "workers=4" in line

    def test_json_lines_format(self):
        stream = self._configured(level="debug", json_lines=True)
        get_logger("core.executor").debug("dispatching", extra={"tasks": 12})
        record = json.loads(stream.getvalue())
        assert record["level"] == "DEBUG"
        assert record["logger"] == "repro.core.executor"
        assert record["message"] == "dispatching"
        assert record["tasks"] == 12

    def test_level_threshold(self):
        stream = self._configured(level="warning")
        get_logger("x").info("quiet")
        get_logger("x").warning("loud")
        assert "quiet" not in stream.getvalue()
        assert "loud" in stream.getvalue()

    def test_reconfigure_replaces_the_handler(self):
        self._configured(level="info")
        stream = self._configured(level="info")
        get_logger("x").info("once")
        handlers = [
            h
            for h in stdlib_logging.getLogger("repro").handlers
            if getattr(h, "_repro_handler", False)
        ]
        assert len(handlers) == 1
        assert stream.getvalue().count("once") == 1

    def test_rejects_unknown_level(self):
        with pytest.raises(ValueError):
            configure_logging(level="chatty")

    def test_get_logger_name_forms(self):
        assert get_logger("repro.core.stpm").name == "repro.core.stpm"
        assert get_logger("core.stpm").name == "repro.core.stpm"
        assert get_logger(None).name == "repro"

    def test_formatters_are_exported(self):
        assert isinstance(KeyValueFormatter(), stdlib_logging.Formatter)
        assert isinstance(JsonLinesFormatter(), stdlib_logging.Formatter)


class TestCrossProcessParity:
    """Worker-side counters shipped through the envelope match serial."""

    @pytest.mark.parametrize("name", ["RE", "SC", "INF", "HFM"])
    def test_seed_dataset_counter_parity(self, name):
        dataset = load_dataset(name, "tiny")
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        dseq = dataset.dseq()
        with capture() as serial_captured:
            serial = ESTPM(dseq, params).mine()
        executor = ParallelExecutor(max_workers=2, min_tasks=1)
        with capture() as pooled_captured, executor:
            pooled = ESTPM(dseq, params, executor=executor).mine()
        assert results_equivalent(serial, pooled)

        def mining_only(registry):
            return {
                key: value
                for key, value in registry.counters.items()
                if key.startswith(("mine.", "kernel."))
            }

        serial_counts = mining_only(serial_captured)
        pooled_counts = mining_only(pooled_captured)
        assert serial_counts.get("mine.groups.pair", 0) > 0
        # Verdict rows are built once per verdict store, and the store is
        # per level in one process: each pool worker fills its own.  So
        # this one counter measures per-store work: a 2-worker run builds
        # every row the serial run builds, and each at most twice.
        serial_rows = serial_counts.pop("kernel.extend.verdict_rows", 0)
        pooled_rows = pooled_counts.pop("kernel.extend.verdict_rows", 0)
        assert serial_rows <= pooled_rows <= 2 * serial_rows
        assert serial_counts == pooled_counts

    def test_executor_counters_record_dispatch(self):
        dataset = load_dataset("INF", "tiny")
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        dseq = dataset.dseq()
        with capture() as serial_captured:
            ESTPM(dseq, params).mine()
        assert "executor.map_calls" not in serial_captured.counters
        with capture() as captured, ParallelExecutor(
            max_workers=2, min_tasks=1, reuse_pool=True
        ) as executor:
            ESTPM(dseq, params, executor=executor).mine()
        assert captured.counters["executor.map_calls"] > 0
        assert captured.counters["executor.tasks_dispatched"] > 0
        assert captured.counters["executor.pool_spawns"] == 1
        assert (
            captured.counters["executor.pool_reuses"]
            == captured.counters["executor.map_calls"] - 1
        )


class TestDisabledPathCost:
    def test_disabled_mining_allocates_nothing_in_obs(self):
        """The step-2.2 hot loop must not touch obs state when disabled."""
        dataset = load_dataset("INF", "tiny")
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        dseq = dataset.dseq()  # warm every cache before tracing starts
        ESTPM(dseq, params).mine()
        obs_dir = Path(repro.obs.__file__).parent
        tracemalloc.start()
        try:
            ESTPM(dseq, params).mine()
            snapshot = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        obs_stats = snapshot.filter_traces(
            [tracemalloc.Filter(True, str(obs_dir / "*"))]
        ).statistics("filename")
        assert obs_stats == []

    def test_disabled_mining_result_matches_enabled(self):
        dataset = load_dataset("INF", "tiny")
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        dseq = dataset.dseq()
        disabled = ESTPM(dseq, params).mine()
        repro.obs.enable_telemetry()
        try:
            enabled = ESTPM(dseq, params).mine()
        finally:
            repro.obs.disable_telemetry()
        assert results_equivalent(disabled, enabled)
        assert counters.summary()["counters"]["mine.groups.pair"] > 0
        names = {root["name"] for root in trace_tree()}
        assert "estpm/mine" in names
