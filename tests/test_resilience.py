"""Chaos suite for the resilience layer.

Drives seeded :class:`FaultPlan` schedules -- worker kills, transient
raises, delays, interrupted writes -- through all three executors and
both miners, and asserts the recovery machinery's contract: a recovered
run lands on output *equivalent* (for retry-then-succeed schedules,
byte-identical) to an uninjected run, exhausted tasks quarantine into
``failures`` instead of killing the job, resume-from-checkpoint equals
a fresh run, and an interrupted atomic write leaves the previous file
intact.  The backoff schedule's determinism is pinned by a hypothesis
property test.
"""

from __future__ import annotations

import base64
import json
import os
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.executor import ParallelExecutor, SerialExecutor
from repro.core.results import results_equivalent
from repro.core.stpm import ESTPM
from repro.exceptions import ConfigError, FaultInjected, MiningError
from repro.io.atomic import write_text_atomic
from repro.io.job_checkpoint import JobCheckpoint
from repro.io.results_json import result_to_json
from repro.multigrain import HierarchicalMiner
from repro.obs import counters as metrics
from repro.obs import (
    disable_telemetry,
    enable_telemetry,
    reset_telemetry,
    summary as telemetry_summary,
    write_trace,
)
from repro.resilience import (
    FAULT_PLAN_ENV,
    DEFAULT_RETRY_POLICY,
    FailedTask,
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    active_fault_plan,
    fault_task_scope,
    install_fault_plan,
    maybe_fault,
)
from repro.resilience.policy import task_key_of

#: Retries without sleeps, so chaos runs stay fast.
FAST_RETRY = RetryPolicy(backoff_base_s=0.0)


@pytest.fixture(autouse=True)
def _no_leaked_faults():
    """Every test leaves the process (and environment) fault-free."""
    yield
    install_fault_plan(None)


@pytest.fixture()
def counters():
    """Enable the metric registry for one test and return it."""
    metrics.enable_metrics()
    metrics.reset()
    try:
        yield metrics.registry()
    finally:
        metrics.disable_metrics()
        metrics.reset()


def _square(task):
    """Module-level task fn so process pools can pickle it."""
    return task * task


def _raise_plan(**constraints) -> FaultPlan:
    return FaultPlan(seed=7, faults=(FaultSpec(site="task", op="raise", **constraints),))


class TestRetryPolicy:
    def test_default_policy_bounds(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3
        assert DEFAULT_RETRY_POLICY.timeout_s is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -1.0},
            {"backoff_multiplier": 0.5},
            {"jitter_pct": 1.0},
            {"jitter_pct": -0.1},
            {"timeout_s": 0.0},
            {"max_pool_breaks": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            RetryPolicy(**kwargs)

    def test_backoff_rejects_bad_attempt(self):
        with pytest.raises(ConfigError):
            DEFAULT_RETRY_POLICY.backoff_s("k", 0)

    def test_backoff_caps_without_jitter(self):
        policy = RetryPolicy(
            backoff_base_s=1.0, backoff_multiplier=2.0, backoff_max_s=3.0, jitter_pct=0.0
        )
        assert policy.backoff_s("k", 1) == 1.0
        assert policy.backoff_s("k", 2) == 2.0
        assert policy.backoff_s("k", 3) == 3.0  # capped, not 4.0
        assert policy.backoff_s("k", 9) == 3.0

    @given(
        key=st.text(max_size=30),
        attempt=st.integers(min_value=1, max_value=12),
        base=st.floats(min_value=0.001, max_value=2.0),
        jitter=st.floats(min_value=0.0, max_value=0.99),
    )
    @settings(max_examples=80, deadline=None)
    def test_backoff_deterministic_and_bounded(self, key, attempt, base, jitter):
        policy = RetryPolicy(
            backoff_base_s=base, jitter_pct=jitter, backoff_max_s=5.0
        )
        delay = policy.backoff_s(key, attempt)
        # Pure function of (key, attempt): same inputs, same delay --
        # including across a fresh policy object.
        assert delay == policy.backoff_s(key, attempt)
        assert delay == RetryPolicy(
            backoff_base_s=base, jitter_pct=jitter, backoff_max_s=5.0
        ).backoff_s(key, attempt)
        cap = min(base * policy.backoff_multiplier ** (attempt - 1), 5.0)
        assert cap * (1.0 - jitter) - 1e-12 <= delay <= cap * (1.0 + jitter) + 1e-12

    def test_failed_task_describe(self):
        failed = FailedTask(key="('a', 'b')", error="ValueError('x')", attempts=3)
        assert "('a', 'b')" in failed.describe()
        assert "3 attempts" in failed.describe()

    def test_task_key_is_repr(self):
        assert task_key_of(("a", 1)) == "('a', 1)"


class TestFaultPlan:
    def test_json_round_trip(self):
        plan = FaultPlan(
            seed=42,
            faults=(
                FaultSpec(site="task", op="kill", index=3, attempt=0),
                FaultSpec(site="write", op="interrupt", key="ckpt"),
                FaultSpec(site="task", op="delay", delay_s=0.5),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_install_mirrors_environment(self):
        import repro.resilience.faults as faults_mod

        plan = _raise_plan(index=1)
        install_fault_plan(plan)
        assert FaultPlan.from_json(os.environ[FAULT_PLAN_ENV]) == plan
        # A worker process has no module global -- only the environment.
        faults_mod._ACTIVE = None
        assert active_fault_plan() == plan
        install_fault_plan(None)
        assert FAULT_PLAN_ENV not in os.environ
        assert active_fault_plan() is None

    @pytest.mark.parametrize(
        "kwargs", [{"site": "nope", "op": "raise"}, {"site": "task", "op": "nope"},
                   {"site": "task", "op": "delay", "delay_s": -1.0}]
    )
    def test_spec_validation(self, kwargs):
        with pytest.raises(ConfigError):
            FaultSpec(**kwargs)

    def test_bad_json_rejected(self):
        with pytest.raises(ConfigError):
            FaultPlan.from_json("{not json")
        with pytest.raises(ConfigError):
            FaultPlan.from_json("[1, 2]")

    def test_matching_constraints(self):
        spec = FaultSpec(site="task", op="raise", index=2, key="pair", attempt=1)
        assert spec.matches("task", 2, "k2:pair:('a','b')", 1)
        assert not spec.matches("task", 3, "k2:pair:('a','b')", 1)
        assert not spec.matches("task", 2, "extension", 1)
        assert not spec.matches("task", 2, "k2:pair:('a','b')", 0)
        assert not spec.matches("write", 2, "k2:pair:('a','b')", 1)
        wildcard = FaultSpec(site="task", op="raise")
        assert wildcard.matches("task", 99, None, 7)

    @pytest.mark.parametrize(
        "value",
        [
            FaultSpec(site="task", op="kill", index=1),
            FaultPlan(seed=9, faults=(FaultSpec(site="write", op="interrupt"),)),
            FailedTask(key="('a',)", error="OSError()", attempts=2),
            RetryPolicy(max_attempts=5, timeout_s=1.5),
        ],
    )
    def test_pickles_across_executor_boundary(self, value):
        assert pickle.loads(pickle.dumps(value)) == value

    def test_maybe_fault_noop_without_plan(self):
        with fault_task_scope():
            maybe_fault("task", index=0, key="k", attempt=0)  # must not raise

    def test_raise_fires_at_depth_one_only(self):
        install_fault_plan(_raise_plan(index=0))
        with fault_task_scope():
            with pytest.raises(FaultInjected):
                maybe_fault("task", index=0, key="k", attempt=0)
            with fault_task_scope():
                # Depth 2: a miner nested inside a worker never re-fires.
                maybe_fault("task", index=0, key="k", attempt=0)

    def test_kill_degrades_to_raise_outside_pool_workers(self):
        install_fault_plan(
            FaultPlan(faults=(FaultSpec(site="task", op="kill", index=0),))
        )
        with fault_task_scope():
            with pytest.raises(FaultInjected):
                maybe_fault("task", index=0, key="k", attempt=0)


class TestAtomicWrites:
    def test_round_trip_creates_parents(self, tmp_path):
        target = tmp_path / "nested" / "dir" / "out.json"
        written = write_text_atomic(target, '{"ok": true}\n')
        assert written == target
        assert target.read_text() == '{"ok": true}\n'

    def test_overwrite_replaces(self, tmp_path):
        target = tmp_path / "state.json"
        write_text_atomic(target, "first")
        write_text_atomic(target, "second")
        assert target.read_text() == "second"

    def test_interrupted_write_keeps_previous_file(self, tmp_path):
        target = tmp_path / "state.json"
        write_text_atomic(target, "previous")
        install_fault_plan(
            FaultPlan(
                seed=3,
                faults=(FaultSpec(site="write", op="interrupt", key="state.json"),),
            )
        )
        with pytest.raises(FaultInjected):
            write_text_atomic(target, "partial new content")
        install_fault_plan(None)
        # The crash hit between the temp write and the atomic rename:
        # the previous contents survive and the temp file is cleaned up.
        assert target.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["state.json"]
        write_text_atomic(target, "new")
        assert target.read_text() == "new"


def _executors():
    return [
        ("serial", lambda: SerialExecutor(retry=FAST_RETRY)),
        ("parallel", lambda: ParallelExecutor(max_workers=2, retry=FAST_RETRY)),
    ]


class TestExecutorRecovery:
    @pytest.mark.parametrize(
        "name,factory", _executors(), ids=[name for name, _ in _executors()]
    )
    def test_retry_then_succeed_matches_unfaulted(self, name, factory):
        tasks = list(range(6))
        expected = [task * task for task in tasks]
        install_fault_plan(_raise_plan(index=1, attempt=0))
        runner = factory()
        try:
            assert list(runner.map_tasks(_square, tasks, None)) == expected
        finally:
            runner.close()

    @pytest.mark.parametrize(
        "name,factory", _executors(), ids=[name for name, _ in _executors()]
    )
    def test_exhausted_task_quarantines_in_place(self, name, factory):
        policy = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        install_fault_plan(_raise_plan(index=2))  # every attempt of task 2
        runner = factory()
        runner.retry = policy
        try:
            outcomes = list(runner.map_tasks(_square, list(range(5)), None))
        finally:
            runner.close()
        quarantined = outcomes[2]
        assert isinstance(quarantined, FailedTask)
        assert quarantined.attempts == 2
        assert "FaultInjected" in quarantined.error
        assert [o for i, o in enumerate(outcomes) if i != 2] == [0, 1, 9, 16]

    def test_pool_break_recovery_fork(self, counters):
        install_fault_plan(
            FaultPlan(faults=(FaultSpec(site="task", op="kill", index=0, attempt=0),))
        )
        runner = ParallelExecutor(max_workers=2, retry=FAST_RETRY)
        try:
            tasks = list(range(8))
            assert list(runner.map_tasks(_square, tasks, None)) == [
                task * task for task in tasks
            ]
        finally:
            runner.close()
        assert counters.snapshot()["counters"].get("executor.pool_breaks", 0) >= 1

    def test_pool_break_recovery_spawn(self):
        # task_key_of is importable from a spawn worker, unlike test fns.
        install_fault_plan(
            FaultPlan(faults=(FaultSpec(site="task", op="kill", index=1, attempt=0),))
        )
        runner = ParallelExecutor(
            max_workers=2, start_method="spawn", retry=FAST_RETRY
        )
        try:
            tasks = list(range(4))
            assert list(runner.map_tasks(task_key_of, tasks, None)) == [
                repr(task) for task in tasks
            ]
        finally:
            runner.close()

    def test_persistent_breaks_degrade_to_serial(self, counters):
        # Task 0 dies on *every* attempt: the pool keeps breaking until
        # the degradation threshold, then the serial fallback turns the
        # kill into a retryable raise and finally quarantines the task.
        install_fault_plan(
            FaultPlan(faults=(FaultSpec(site="task", op="kill", index=0),))
        )
        runner = ParallelExecutor(
            max_workers=2,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0, max_pool_breaks=1),
        )
        try:
            outcomes = list(runner.map_tasks(_square, list(range(4)), None))
        finally:
            runner.close()
        assert isinstance(outcomes[0], FailedTask)
        assert outcomes[1:] == [1, 4, 9]
        snapshot = counters.snapshot()["counters"]
        assert snapshot.get("executor.serial_degradations", 0) >= 1
        assert snapshot.get("executor.pool_breaks", 0) >= 2

    def test_stalled_task_times_out_and_recovers(self, counters):
        install_fault_plan(
            FaultPlan(
                faults=(
                    FaultSpec(site="task", op="delay", index=0, attempt=0, delay_s=5.0),
                ),
            )
        )
        runner = ParallelExecutor(
            max_workers=2,
            retry=RetryPolicy(backoff_base_s=0.0, timeout_s=0.3),
        )
        try:
            assert list(runner.map_tasks(_square, [0, 1], None)) == [0, 1]
        finally:
            runner.close()
        assert counters.snapshot()["counters"].get("executor.task_timeouts", 0) >= 1

    def test_close_is_idempotent(self):
        runner = ParallelExecutor(max_workers=2)
        assert list(runner.map_tasks(_square, [1, 2], None)) == [1, 4]
        runner.close()
        runner.close()  # second close is a no-op, not an error


class TestMiningChaos:
    @pytest.fixture(scope="class")
    def baseline(self, paper_dseq, paper_params):
        return ESTPM(paper_dseq, paper_params).mine()

    @pytest.mark.parametrize(
        "name,factory", _executors(), ids=[name for name, _ in _executors()]
    )
    def test_retry_then_succeed_byte_identical(
        self, name, factory, paper_dseq, paper_params, baseline
    ):
        # Fail the *first* attempt of every task; retries succeed, and
        # the recovered result is byte-identical to the unfaulted run.
        install_fault_plan(_raise_plan(attempt=0))
        runner = factory()
        try:
            result = ESTPM(paper_dseq, paper_params, executor=runner).mine()
        finally:
            runner.close()
        assert not result.failures and result.complete
        assert results_equivalent(result, baseline)
        assert (
            json.loads(result_to_json(result))["patterns"]
            == json.loads(result_to_json(baseline))["patterns"]
        )

    def test_quarantine_strict_raises(self, paper_dseq, paper_params):
        install_fault_plan(_raise_plan(index=0))
        runner = SerialExecutor(retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0))
        with pytest.raises(MiningError, match="failed after retries"):
            ESTPM(paper_dseq, paper_params, executor=runner).mine()

    def test_quarantine_partial_result_not_equivalent(
        self, paper_dseq, paper_params, baseline
    ):
        install_fault_plan(_raise_plan(index=0))
        runner = SerialExecutor(retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0))
        result = ESTPM(
            paper_dseq, paper_params, executor=runner, strict=False
        ).mine()
        assert result.failures and not result.complete
        assert result.failures[0].attempts == 2
        assert not results_equivalent(result, baseline)
        assert not results_equivalent(baseline, result)

    def test_resume_after_crash_equals_fresh_run(
        self, tmp_path, paper_dseq, paper_params, baseline, counters
    ):
        ckpt = str(tmp_path / "estpm.ckpt.json")
        install_fault_plan(_raise_plan(index=0))
        crashing = ESTPM(
            paper_dseq,
            paper_params,
            executor=SerialExecutor(retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0)),
            checkpoint_path=ckpt,
        )
        with pytest.raises(MiningError):
            crashing.mine()
        assert os.path.exists(ckpt)  # completed groups were persisted
        install_fault_plan(None)
        resumed = ESTPM(paper_dseq, paper_params, checkpoint_path=ckpt).mine()
        assert counters.snapshot()["counters"].get("resume.tasks_skipped", 0) >= 1
        assert results_equivalent(resumed, baseline)
        assert (
            json.loads(result_to_json(resumed))["patterns"]
            == json.loads(result_to_json(baseline))["patterns"]
        )

    def test_checkpoint_rejects_different_job(self, tmp_path, paper_dseq, paper_params):
        ckpt = str(tmp_path / "estpm.ckpt.json")
        ESTPM(paper_dseq, paper_params, checkpoint_path=ckpt).mine()
        from dataclasses import replace

        other = replace(paper_params, min_season=paper_params.min_season + 1)
        with pytest.raises(ConfigError, match="fingerprint"):
            ESTPM(paper_dseq, other, checkpoint_path=ckpt).mine()

    @pytest.mark.parametrize("dataset_name", ["tiny_re", "tiny_inf"])
    def test_seed_dataset_chaos_parity(self, dataset_name, request):
        dataset = request.getfixturevalue(dataset_name)
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        baseline = ESTPM(dataset.dseq(), params).mine()
        install_fault_plan(_raise_plan(attempt=0))
        runner = SerialExecutor(retry=FAST_RETRY)
        result = ESTPM(dataset.dseq(), params, executor=runner).mine()
        assert not result.failures
        assert results_equivalent(result, baseline)


class TestMultigrainChaos:
    def _miner(self, dsyb, **kwargs):
        return HierarchicalMiner(
            dsyb,
            ratios=[3, 6],
            dist_interval=(12, 30),
            min_season=2,
            max_pattern_length=2,
            **kwargs,
        )

    @pytest.fixture(scope="class")
    def baseline(self, paper_dsyb):
        return self._miner(paper_dsyb).mine()

    @pytest.mark.parametrize("start_method", ["fork", "spawn"])
    def test_chaos_parity_kill_one_worker_per_level(
        self, start_method, paper_dsyb, baseline, tmp_path
    ):
        # The acceptance scenario: a seeded plan kills the first attempt
        # of every level task; the job completes via pool-break recovery
        # with output equivalent to the uninjected run, under both start
        # methods, and the recovery counters land in the trace JSON.
        install_fault_plan(
            FaultPlan(seed=42, faults=(FaultSpec(site="task", op="kill", attempt=0),))
        )
        runner = ParallelExecutor(
            max_workers=2, start_method=start_method, retry=FAST_RETRY
        )
        reset_telemetry()
        enable_telemetry()
        try:
            result = self._miner(paper_dsyb, executor=runner).mine()
            trace_path = tmp_path / f"chaos-{start_method}.json"
            write_trace(trace_path, command="chaos", counters=telemetry_summary())
        finally:
            disable_telemetry()
            reset_telemetry()
            runner.close()
            install_fault_plan(None)
        assert not result.failures
        assert len(result.levels) == len(baseline.levels)
        for mine, theirs in zip(result, baseline):
            assert mine.ratio == theirs.ratio
            assert results_equivalent(mine.result, theirs.result)
        trace = json.loads(trace_path.read_text())
        counter_names = set(trace["counters"]["counters"])
        assert "faults.injected.kill" in counter_names or (
            counter_names & {"executor.pool_breaks", "executor.retries"}
        )

    def test_level_quarantine_strict_and_partial(self, paper_dsyb, baseline):
        install_fault_plan(_raise_plan(index=1))
        runner = SerialExecutor(retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0))
        with pytest.raises(MiningError, match="level task"):
            self._miner(paper_dsyb, executor=runner).mine()
        partial = self._miner(paper_dsyb, executor=runner, strict=False).mine()
        assert len(partial.failures) == 1
        assert not partial.complete
        assert len(partial.levels) == len(baseline.levels) - 1

    def test_resume_equals_fresh_hierarchy(
        self, tmp_path, paper_dsyb, baseline, counters
    ):
        ckpt = str(tmp_path / "multigrain.ckpt.json")
        install_fault_plan(_raise_plan(index=1))
        crashing = self._miner(
            paper_dsyb,
            executor=SerialExecutor(retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0)),
            checkpoint_path=ckpt,
        )
        with pytest.raises(MiningError):
            crashing.mine()
        install_fault_plan(None)
        resumed = self._miner(paper_dsyb, checkpoint_path=ckpt).mine()
        assert counters.snapshot()["counters"].get("resume.tasks_skipped", 0) >= 1
        assert len(resumed.levels) == len(baseline.levels)
        for mine, theirs in zip(resumed, baseline):
            assert results_equivalent(mine.result, theirs.result)


class TestJobCheckpoint:
    def test_record_flush_reload(self, tmp_path):
        path = tmp_path / "job.json"
        fingerprint = {"job": "test", "n": 3}
        ckpt = JobCheckpoint(path, fingerprint)
        ckpt.record("k2:('a','b')", {"support": [1, 2]})
        ckpt.flush()
        reloaded = JobCheckpoint(path, fingerprint)
        assert len(reloaded) == 1
        assert "k2:('a','b')" in reloaded
        assert reloaded.get("k2:('a','b')") == {"support": [1, 2]}

    def test_flush_every_autoflushes(self, tmp_path):
        path = tmp_path / "job.json"
        ckpt = JobCheckpoint(path, {"job": "test"}, flush_every=1)
        ckpt.record("a", 1)
        assert path.exists()
        assert "a" in JobCheckpoint(path, {"job": "test"})

    def test_fingerprint_mismatch_rejected(self, tmp_path):
        path = tmp_path / "job.json"
        JobCheckpoint(path, {"job": "test", "n": 3}).flush()
        with pytest.raises(ConfigError, match="fingerprint"):
            JobCheckpoint(path, {"job": "test", "n": 4})

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "job.json"
        path.write_text(
            json.dumps({"format_version": 99, "fingerprint": {}, "outcomes": {}})
        )
        with pytest.raises(ConfigError, match="version"):
            JobCheckpoint(path, {})


    @staticmethod
    def _replace_outcome(path, blob):
        """Overwrite the checkpoint's only outcome blob; returns its key."""
        data = json.loads(path.read_text())
        (key,) = data["outcomes"]
        data["outcomes"][key] = blob
        path.write_text(json.dumps(data))
        return key

    def _assert_undecodable(self, tmp_path, blob):
        path = tmp_path / "job.json"
        ckpt = JobCheckpoint(path, {"job": "test"})
        ckpt.record("k2:('a','b')", {"support": [1, 2]})
        ckpt.flush()
        key = self._replace_outcome(path, blob)
        with pytest.raises(ConfigError) as excinfo:
            JobCheckpoint(path, {"job": "test"})
        message = str(excinfo.value)
        assert str(path) in message
        assert repr(key) in message
        assert "fresh path" in message

    def test_truncated_outcome_rejected(self, tmp_path):
        whole = base64.b64encode(pickle.dumps({"support": [1, 2]})).decode("ascii")
        self._assert_undecodable(tmp_path, whole[: len(whole) // 2 // 4 * 4])

    def test_outcome_naming_a_missing_class_rejected(self, tmp_path):
        # What a checkpoint pickled by an older build holds once one of
        # its classes is gone: a global this build cannot resolve.
        missing = b"crepro.core.supportset\n_RemovedSupportSet\n."
        self._assert_undecodable(tmp_path, base64.b64encode(missing).decode("ascii"))

    def test_bad_base64_outcome_rejected(self, tmp_path):
        self._assert_undecodable(tmp_path, "not*base64")


class TestStreamingAutosave:
    def _service(self, tmp_path, **kwargs):
        from repro import (
            MiningParams,
            StreamingDatabase,
            StreamingMiningService,
        )
        from repro.symbolic import Alphabet

        database = StreamingDatabase(
            2, {"T": Alphabet.binary(), "W": Alphabet.binary()}
        )
        params = MiningParams(
            max_period=3, min_density=2, dist_interval=(0, 12), min_season=2
        )
        return StreamingMiningService(database, params, **kwargs)

    def test_validation(self, tmp_path):
        with pytest.raises(MiningError, match="checkpoint_every"):
            self._service(tmp_path, checkpoint_path=tmp_path / "s.json", checkpoint_every=0)
        with pytest.raises(MiningError, match="checkpoint_path"):
            self._service(tmp_path, checkpoint_every=2)

    def test_autosave_and_restore_parity(self, tmp_path):
        from repro import StreamingMiningService

        path = tmp_path / "stream.json"
        service = self._service(tmp_path, checkpoint_path=path, checkpoint_every=1)
        service.push_symbols({"T": "110010", "W": "101101"})
        assert path.exists()
        restored = StreamingMiningService.restore(path)
        assert restored.n_granules == service.n_granules
        assert results_equivalent(restored.result(), service.result())

    def test_manual_save_uses_default_path(self, tmp_path):
        path = tmp_path / "stream.json"
        service = self._service(tmp_path, checkpoint_path=path)
        service.push_symbols({"T": "1100", "W": "1011"})
        assert not path.exists()  # no checkpoint_every: manual only
        service.save_checkpoint()
        assert path.exists()


class TestCLIInterrupt:
    def test_interrupt_exits_130_and_writes_trace(self, tmp_path, monkeypatch):
        from repro.harness import cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_dispatch", interrupted)
        trace_path = tmp_path / "trace.json"
        assert cli.main(["multigrain", "--trace", str(trace_path)]) == 130
        # The partial trace still lands on disk on the way out.
        assert trace_path.exists()
        assert "counters" in json.loads(trace_path.read_text())


def test_undecodable_resume_checkpoint_is_a_usage_error(tmp_path, capsys):
    from repro.harness import cli

    path = tmp_path / "resume.json"
    argv = [
        "mine", "--dataset", "RE", "--profile", "tiny", "--min-season", "4",
        "--resume", str(path),
    ]
    assert cli.main(argv) == 0
    data = json.loads(path.read_text())
    key = next(iter(data["outcomes"]))
    data["outcomes"][key] = data["outcomes"][key][:8]
    path.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    (line,) = [line for line in err.splitlines() if "ERROR" in line]
    assert str(path) in line


def test_resilience_modules_registered_for_ep_checks():
    from repro.analysis.rules.base import EXECUTOR_BOUNDARY_MODULES

    assert "repro.resilience.policy" in EXECUTOR_BOUNDARY_MODULES
    assert "repro.resilience.faults" in EXECUTOR_BOUNDARY_MODULES
