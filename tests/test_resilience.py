"""Chaos suite for the resilience layer.

Drives seeded :class:`FaultPlan` schedules -- transient raises and
interrupted writes -- through the task runner and the miners, and
asserts the recovery machinery's contract: a recovered run lands on
output *equivalent* (for retry-then-succeed schedules, byte-identical)
to an uninjected run, exhausted tasks quarantine into ``failures``
instead of killing the job, resume-from-checkpoint equals a fresh run,
a checkpoint refuses a job with other settings, and an interrupted
atomic write leaves the previous file intact.  The backoff schedule's
determinism is pinned by a hypothesis property test.
"""

from __future__ import annotations

import ast
import base64
import json
import os
import pickle
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.prune import PruningConfig
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


def _raise_plan(**constraints) -> FaultPlan:
    return FaultPlan(seed=7, faults=(FaultSpec(site="task", op="raise", **constraints),))


class TestRetryPolicy:
    def test_default_policy_bounds(self):
        assert DEFAULT_RETRY_POLICY.max_attempts == 3
        assert DEFAULT_RETRY_POLICY.backoff_max_s == 5.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base_s": -1.0},
            {"backoff_multiplier": 0.5},
            {"jitter_pct": 1.0},
            {"jitter_pct": -0.1},
            {"backoff_max_s": -1.0},
            {"max_attempts": -2},
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
                FaultSpec(site="task", op="raise", index=3, attempt=0),
                FaultSpec(site="write", op="interrupt", key="ckpt"),
                FaultSpec(site="task", op="raise", key="k2:"),
            ),
        )
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_install_mirrors_environment(self):
        import repro.resilience.faults as faults_mod

        plan = _raise_plan(index=1)
        install_fault_plan(plan)
        assert FaultPlan.from_json(os.environ[FAULT_PLAN_ENV]) == plan
        # A subprocess has no module global -- only the environment.
        faults_mod._ACTIVE = None
        assert active_fault_plan() == plan
        install_fault_plan(None)
        assert FAULT_PLAN_ENV not in os.environ
        assert active_fault_plan() is None

    @pytest.mark.parametrize(
        "kwargs", [{"site": "nope", "op": "raise"}, {"site": "task", "op": "nope"},
                   {"site": "task", "op": "delay"}, {"site": "task", "op": "kill"}]
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
            FaultSpec(site="task", op="raise", index=1),
            FaultPlan(seed=9, faults=(FaultSpec(site="write", op="interrupt"),)),
            FailedTask(key="('a',)", error="OSError()", attempts=2),
            RetryPolicy(max_attempts=5, backoff_base_s=1.5),
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
                # Depth 2: a miner nested inside a level task never fires.
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


class TestTaskRecovery:
    def test_retry_then_succeed_matches_unfaulted(
        self, paper_dseq, paper_params, counters
    ):
        # Task 1 of each level fails its first attempt; the retries
        # succeed, and the job returns what an unfaulted run returns.
        baseline = ESTPM(paper_dseq, paper_params).mine()
        install_fault_plan(_raise_plan(index=1, attempt=0))
        result = ESTPM(paper_dseq, paper_params, retry=FAST_RETRY).mine()
        assert not result.failures
        assert results_equivalent(result, baseline)
        snapshot = counters.snapshot()["counters"]
        assert snapshot["executor.retries"] >= 1
        assert "executor.quarantined" not in snapshot

    def test_exhausted_task_quarantines_in_place(
        self, paper_dseq, paper_params, counters
    ):
        params = replace(paper_params, max_pattern_length=2)
        baseline = ESTPM(paper_dseq, params).mine()
        install_fault_plan(_raise_plan(index=2))  # every attempt of task 2
        result = ESTPM(
            paper_dseq,
            params,
            retry=RetryPolicy(max_attempts=2, backoff_base_s=0.0),
            strict=False,
        ).mine()
        (quarantined,) = result.failures
        assert quarantined.attempts == 2
        assert "FaultInjected" in quarantined.error
        assert counters.snapshot()["counters"]["executor.quarantined"] == 1
        # Only the failed group's patterns are missing; every other task
        # ran and registered as usual.
        group = ast.literal_eval(quarantined.key)
        assert [sp.pattern for sp in result.patterns] == [
            sp.pattern
            for sp in baseline.patterns
            if sp.size != 2 or tuple(sorted(sp.pattern.events)) != group
        ]


class TestMiningChaos:
    @pytest.fixture(scope="class")
    def baseline(self, paper_dseq, paper_params):
        return ESTPM(paper_dseq, paper_params).mine()

    def test_retry_then_succeed_byte_identical(
        self, paper_dseq, paper_params, baseline
    ):
        # Fail the *first* attempt of every task; retries succeed, and
        # the recovered result is byte-identical to the unfaulted run.
        install_fault_plan(_raise_plan(attempt=0))
        result = ESTPM(paper_dseq, paper_params, retry=FAST_RETRY).mine()
        assert not result.failures and result.complete
        assert results_equivalent(result, baseline)
        assert (
            json.loads(result_to_json(result))["patterns"]
            == json.loads(result_to_json(baseline))["patterns"]
        )

    def test_quarantine_strict_raises(self, paper_dseq, paper_params):
        install_fault_plan(_raise_plan(index=0))
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        with pytest.raises(MiningError, match="failed after retries"):
            ESTPM(paper_dseq, paper_params, retry=retry).mine()

    def test_quarantine_partial_result_not_equivalent(
        self, paper_dseq, paper_params, baseline
    ):
        install_fault_plan(_raise_plan(index=0))
        retry = RetryPolicy(max_attempts=2, backoff_base_s=0.0)
        result = ESTPM(paper_dseq, paper_params, retry=retry, strict=False).mine()
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
            retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0),
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
        other = replace(paper_params, min_season=paper_params.min_season + 1)
        with pytest.raises(ConfigError, match="fingerprint"):
            ESTPM(paper_dseq, other, checkpoint_path=ckpt).mine()

    def test_checkpoint_rejects_other_pruning(
        self, tmp_path, paper_dseq, paper_params
    ):
        # Pruning changes the recorded outcomes (a gate-rejected group
        # stores no support), so the candidate counts a resumed NoPrune
        # run would report are the pruned run's.
        ckpt = str(tmp_path / "estpm.ckpt.json")
        ESTPM(paper_dseq, paper_params, checkpoint_path=ckpt).mine()
        with pytest.raises(ConfigError, match="fingerprint"):
            ESTPM(
                paper_dseq, paper_params, PruningConfig.none(), checkpoint_path=ckpt
            ).mine()

    @pytest.mark.parametrize("dataset_name", ["tiny_re", "tiny_inf"])
    def test_seed_dataset_chaos_parity(self, dataset_name, request):
        dataset = request.getfixturevalue(dataset_name)
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        baseline = ESTPM(dataset.dseq(), params).mine()
        install_fault_plan(_raise_plan(attempt=0))
        result = ESTPM(dataset.dseq(), params, retry=FAST_RETRY).mine()
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

    def test_traced_retry_per_level_matches_unfaulted(
        self, paper_dsyb, baseline, tmp_path
    ):
        # A seeded plan fails the first attempt of every level task; the
        # retries complete the job with output equivalent to the
        # uninjected run, and the recovery counters land in the trace.
        install_fault_plan(
            FaultPlan(seed=42, faults=(FaultSpec(site="task", op="raise", attempt=0),))
        )
        reset_telemetry()
        enable_telemetry()
        try:
            result = self._miner(paper_dsyb, retry=FAST_RETRY).mine()
            trace_path = tmp_path / "chaos.json"
            write_trace(trace_path, command="chaos", counters=telemetry_summary())
        finally:
            disable_telemetry()
            reset_telemetry()
            install_fault_plan(None)
        assert not result.failures
        assert len(result.levels) == len(baseline.levels)
        for mine, theirs in zip(result, baseline):
            assert mine.ratio == theirs.ratio
            assert results_equivalent(mine.result, theirs.result)
        counters = json.loads(trace_path.read_text())["counters"]["counters"]
        # One injected fault and one retry per level: the depth gate
        # keeps the plan away from the group tasks inside each level.
        assert counters["faults.injected.raise"] == len(baseline.levels)
        assert counters["executor.retries"] == len(baseline.levels)

    def test_level_quarantine_strict_and_partial(self, paper_dsyb, baseline):
        install_fault_plan(_raise_plan(index=1))
        retry = RetryPolicy(max_attempts=1, backoff_base_s=0.0)
        with pytest.raises(MiningError, match="level task"):
            self._miner(paper_dsyb, retry=retry).mine()
        partial = self._miner(paper_dsyb, retry=retry, strict=False).mine()
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
            retry=RetryPolicy(max_attempts=1, backoff_base_s=0.0),
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

    def test_checkpoint_rejects_other_pruning(self, tmp_path, paper_dsyb):
        ckpt = str(tmp_path / "multigrain.ckpt.json")
        self._miner(paper_dsyb, checkpoint_path=ckpt).mine()
        with pytest.raises(ConfigError, match="fingerprint"):
            self._miner(
                paper_dsyb, pruning=PruningConfig.none(), checkpoint_path=ckpt
            ).mine()


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
    from repro.analysis.rules.base import PICKLE_BOUNDARY_MODULES

    assert "repro.resilience.policy" in PICKLE_BOUNDARY_MODULES
    assert "repro.resilience.faults" in PICKLE_BOUNDARY_MODULES
