"""Executor backends: unit behavior + serial/parallel mining parity.

The headline guarantee: a :class:`MiningResult` is *identical* -- same
patterns, same supports, same season views, same order, same counters --
whichever executor ran the mining.  The parity tests assert it on the
paper's running example and on every seed dataset.

The lifecycle guarantee of the persistent runtime: one pool serves many
``map_tasks`` calls and many jobs (same worker processes throughout),
``close()`` releases it and leaves no task context behind, and a closed
executor respawns lazily on next use.
"""

import os

import pytest

from repro.core.executor import (
    ParallelExecutor,
    SerialExecutor,
    default_executor,
    executor_scope,
    get_task_context,
    resolve_executor,
    set_default_executor,
)
from repro.core.results import results_equivalent
from repro.core.stpm import ESTPM
from repro.core.approximate import ASTPM
from repro.datasets import load_dataset
from repro.exceptions import ConfigError
from repro.multigrain import HierarchicalMiner


def _double(task):
    """Module-level task fn so the process pool can pickle it."""
    return task * 2


def _read_context(task):
    """Return the installed task context plus the task."""
    return (get_task_context(), task)


def _worker_pid(task):
    """The PID of the worker that ran the task (pool-identity probe)."""
    return os.getpid()


def _result_key(result):
    """Everything observable about a mining result, order-sensitive."""
    return (
        [(sp.pattern, sp.seasons) for sp in result.patterns],
        result.stats.n_granules,
        result.stats.n_events_scanned,
        result.stats.n_candidate_events,
        result.stats.n_groups_generated,
        result.stats.n_candidate_groups,
        result.stats.n_candidate_patterns,
        result.stats.n_frequent,
    )


class TestExecutors:
    def test_serial_preserves_order_and_context(self):
        outcomes = list(
            SerialExecutor().map_tasks(_read_context, [1, 2, 3], "ctx")
        )
        assert outcomes == [("ctx", 1), ("ctx", 2), ("ctx", 3)]

    def test_serial_clears_context_after_exhaustion(self):
        list(SerialExecutor().map_tasks(_double, [1], {"big": "state"}))
        assert get_task_context() is None

    def test_serial_is_lazy(self):
        seen = []

        def _record(task):
            seen.append(task)
            return task

        iterator = SerialExecutor().map_tasks(_record, [1, 2, 3], None)
        assert seen == []  # nothing ran yet
        assert next(iterator) == 1
        assert seen == [1]  # one group at a time, classical memory profile
        assert list(iterator) == [2, 3]

    def test_parallel_preserves_order(self):
        outcomes = list(
            ParallelExecutor(max_workers=2, min_tasks=1).map_tasks(
                _double, list(range(20)), None
            )
        )
        assert outcomes == [task * 2 for task in range(20)]

    def test_parallel_ships_context_to_workers(self):
        outcomes = list(
            ParallelExecutor(max_workers=2, min_tasks=1).map_tasks(
                _read_context, [7], {"key": "value"}
            )
        )
        assert outcomes == [({"key": "value"}, 7)]

    def test_parallel_small_levels_run_serially(self):
        executor = ParallelExecutor(max_workers=4, min_tasks=100)
        assert list(executor.map_tasks(_double, [3], None)) == [6]

    def test_parallel_rejects_bad_settings(self):
        with pytest.raises(ConfigError):
            ParallelExecutor(max_workers=0)
        with pytest.raises(ConfigError):
            ParallelExecutor(chunk_size=0)
        with pytest.raises(ConfigError):
            ParallelExecutor(min_tasks=0)
        with pytest.raises(ConfigError):
            ParallelExecutor(min_tasks=-3)
        with pytest.raises(ConfigError):
            ParallelExecutor(start_method="gpu")

    def test_chunk_heuristic(self):
        executor = ParallelExecutor(max_workers=2)
        assert executor._chunk(8) == 1
        assert executor._chunk(800) == 100
        assert ParallelExecutor(max_workers=2, chunk_size=5)._chunk(800) == 5
        # Skewed small levels re-balance with single-task chunks; huge
        # levels cap the chunk so stragglers can shed load.
        assert executor._chunk(7) == 1
        assert executor._chunk(4000) == 128

    def test_resolve_specs(self):
        assert isinstance(resolve_executor("serial"), SerialExecutor)
        assert isinstance(resolve_executor("parallel"), ParallelExecutor)
        assert resolve_executor("parallel", n_workers=3).max_workers == 3
        instance = SerialExecutor()
        assert resolve_executor(instance) is instance
        with pytest.raises(ConfigError):
            resolve_executor("gpu")

    def test_resolve_rejects_instance_plus_workers(self):
        # Silently ignoring n_workers would mine with the wrong pool size.
        with pytest.raises(ConfigError):
            resolve_executor(ParallelExecutor(max_workers=2), n_workers=4)
        with pytest.raises(ConfigError):
            resolve_executor(SerialExecutor(), n_workers=2)

    def test_default_instance_tolerates_worker_preference(self):
        # Only an *explicit* instance conflicts with n_workers: a job that
        # merely carries a worker-count preference must still run on a
        # harness-installed shared default pool.
        executor = SerialExecutor()
        previous = set_default_executor(executor)
        try:
            assert resolve_executor(None, n_workers=4) is executor
        finally:
            set_default_executor(previous)

    def test_default_executor_switch(self):
        previous = set_default_executor("parallel")
        try:
            assert default_executor() == "parallel"
            assert isinstance(resolve_executor(None), ParallelExecutor)
        finally:
            set_default_executor(previous)
        assert isinstance(resolve_executor(None), SerialExecutor)


class TestExecutorLifecycle:
    """The persistent runtime: one pool, many calls and jobs; clean close."""

    def test_pool_reused_across_map_tasks_calls(self):
        with ParallelExecutor(max_workers=2, min_tasks=1, reuse_pool=True) as executor:
            first = set(executor.map_tasks(_worker_pid, range(8), None))
            pool = executor._pool
            assert pool is not None  # spawned lazily on first use
            second = set(executor.map_tasks(_worker_pid, range(8), "other-ctx"))
            third = set(executor.map_tasks(_worker_pid, range(8), None))
            assert executor._pool is pool  # same pool object...
            # ...and the same worker processes: were a pool spawned per
            # call, three calls would have shown up to six distinct PIDs.
            assert len(first | second | third) <= 2
            assert os.getpid() not in first  # genuinely out-of-process

    def test_broadcast_replaces_worker_context(self):
        with ParallelExecutor(max_workers=2, min_tasks=1, reuse_pool=True) as executor:
            first = executor.map_tasks(_read_context, [0], {"level": 1})
            second = executor.map_tasks(_read_context, [0], {"level": 2})
            assert list(first) == [({"level": 1}, 0)]
            assert list(second) == [({"level": 2}, 0)]

    def test_close_releases_pool_and_leaves_no_context(self):
        executor = ParallelExecutor(max_workers=2, min_tasks=1, reuse_pool=True)
        assert list(executor.map_tasks(_double, [1, 2], {"big": "ctx"})) == [2, 4]
        executor.close()
        assert executor._pool is None
        assert get_task_context() is None  # no context leak between jobs
        executor.close()  # idempotent
        # A closed executor respawns lazily on its next use.
        assert list(executor.map_tasks(_double, [3, 4], None)) == [6, 8]
        executor.close()

    def test_release_context_clears_worker_state(self):
        with ParallelExecutor(max_workers=2, min_tasks=1, reuse_pool=True) as executor:
            list(executor.map_tasks(_double, [1, 2], {"big": "ctx"}))
            pool = executor._pool
            executor.release_context()
            assert executor._pool is pool  # pool survives, context does not
            futures = [pool.submit(_read_context, 0) for _ in range(2)]
            assert all(f.result()[0] is None for f in futures)

    def test_executor_scope_owns_name_resolved_backends(self, monkeypatch):
        closed = []
        monkeypatch.setattr(ParallelExecutor, "close", lambda self: closed.append(self))
        with executor_scope("parallel", n_workers=2) as runner:
            assert isinstance(runner, ParallelExecutor)
            assert runner.max_workers == 2
        assert closed == [runner]  # the scope owned and closed it

    def test_executor_scope_leaves_instances_open(self):
        executor = ParallelExecutor(max_workers=2, min_tasks=1, reuse_pool=True)
        try:
            with executor_scope(executor) as runner:
                assert runner is executor
                assert list(runner.map_tasks(_double, [1, 2], None)) == [2, 4]
            assert executor._pool is not None  # caller owns the pool
        finally:
            executor.close()

    def test_engine_defaults_owns_named_executor(self, monkeypatch):
        from repro.harness.runner import engine_defaults

        closed = []
        monkeypatch.setattr(ParallelExecutor, "close", lambda self: closed.append(self))
        with engine_defaults(executor="parallel"):
            installed = default_executor()
            assert isinstance(installed, ParallelExecutor)
        assert default_executor() == "serial"
        assert closed == [installed]  # harness closed the run's executor


class TestPoolReuseParity:
    """One persistent pool across whole jobs stays equivalent to serial."""

    @pytest.mark.parametrize("name", ["RE", "SC", "INF", "HFM"])
    def test_seed_dataset_jobs_share_one_pool(self, shared_pool, name):
        dataset = load_dataset(name, "tiny")
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        dseq = dataset.dseq()
        serial = ESTPM(dseq, params).mine()
        assert serial.patterns, f"parity run on {name} mined nothing"
        pooled = ESTPM(dseq, params, executor=shared_pool).mine()
        assert results_equivalent(serial, pooled)
        assert shared_pool._pool is not None  # the job did not close it

    def test_hierarchical_job_shares_the_pool(self, shared_pool):
        dataset = load_dataset("INF", "tiny")
        settings = {
            "ratios": [dataset.ratio, dataset.ratio * 2], "min_season": 4
        }
        serial = HierarchicalMiner(dataset.dsyb, **settings).mine()
        pooled = HierarchicalMiner(
            dataset.dsyb, executor=shared_pool, **settings
        ).mine()
        assert [level.ratio for level in serial.levels] == [
            level.ratio for level in pooled.levels
        ]
        for mine, theirs in zip(serial.levels, pooled.levels):
            assert results_equivalent(mine.result, theirs.result)


@pytest.fixture(scope="class")
def shared_pool():
    """One persistent parallel executor shared by a whole test class."""
    with ParallelExecutor(max_workers=2, min_tasks=1, reuse_pool=True) as executor:
        yield executor


class TestMiningParity:
    def test_paper_example_parity(self, paper_dseq, paper_params):
        serial = ESTPM(paper_dseq, paper_params, executor="serial").mine()
        parallel = ESTPM(
            paper_dseq,
            paper_params,
            executor=ParallelExecutor(max_workers=2, min_tasks=1),
        ).mine()
        assert _result_key(serial) == _result_key(parallel)

    @pytest.mark.parametrize("name", ["RE", "SC", "INF", "HFM"])
    def test_seed_dataset_parity_across_engines(self, name):
        dataset = load_dataset(name, "tiny")
        params = dataset.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        dseq = dataset.dseq()
        baseline = ESTPM(dseq, params).mine()
        assert baseline.patterns, f"parity run on {name} mined nothing"
        parallel = ESTPM(dseq, params, executor="parallel").mine()
        assert _result_key(baseline) == _result_key(parallel)

    def test_astpm_forwards_engine_knobs(self, tiny_inf):
        params = tiny_inf.params(
            max_period_pct=0.4, min_density_pct=0.75, min_season=4
        )
        serial = ASTPM(
            tiny_inf.dsyb, tiny_inf.ratio, params, dseq=tiny_inf.dseq()
        ).mine()
        parallel = ASTPM(
            tiny_inf.dsyb,
            tiny_inf.ratio,
            params,
            dseq=tiny_inf.dseq(),
            executor="parallel",
        ).mine()
        assert [(sp.pattern, sp.seasons) for sp in serial.patterns] == [
            (sp.pattern, sp.seasons) for sp in parallel.patterns
        ]
