"""Pluggable execution backends for the mining engine.

The candidate-group work of one HLH level (Sec. IV-D: intersect supports,
enumerate instance pairs, grow pattern assignments) is embarrassingly
parallel: groups of the same level never interact, only the finished level
feeds the next one.  :mod:`repro.core.stpm` therefore expresses each level
as a list of *group tasks* -- pure, picklable ``(task) -> outcome``
calls against a shared :class:`~repro.core.stpm.LevelContext` -- and
hands the list to an executor.  Payloads crossing the pool boundary are
deliberately compact: the broadcast context ships raw HLH tables (each
worker rebuilds its own per-process instance columns and flyweight
caches lazily, see :mod:`repro.core.instance_index`), and the
:class:`~repro.core.stpm.GroupOutcome` results carry assignments in the
column-index encoding -- small int tuples instead of repeated event
instances:

* :class:`SerialExecutor` runs the tasks in order in-process (the default;
  zero overhead, exactly the classical single-threaded miner);
* :class:`ParallelExecutor` fans the tasks out over a
  :class:`concurrent.futures.ProcessPoolExecutor` owned by the executor
  *instance*: the pool is spawned lazily on first use and then reused by
  every ``map_tasks`` call -- across HLH levels, across jobs, across a
  whole multigrain hierarchy -- until :meth:`~ParallelExecutor.close`
  (or the context manager / interpreter-exit safety net) releases it.
  Each call broadcasts its level context to the workers first (pickled
  once in the parent, unpickled once per worker), then ships the tasks in
  adaptively sized chunks.

Both backends preserve the submission order of the results, so a
:class:`~repro.core.results.MiningResult` is identical -- same patterns,
same supports, same season views, same ordering -- whichever backend ran
the level (asserted by the parity tests).

Lifecycle
---------
Executors are context managers and expose ``close()``::

    with ParallelExecutor(max_workers=8) as runner:
        ESTPM(dseq, params, executor=runner).mine()      # spawns the pool
        ESTPM(dseq2, params, executor=runner).mine()     # reuses it

Engine entry points that *resolve a backend name* own the resulting
executor and close it when the job finishes (:func:`executor_scope`);
instances passed in by the caller are never closed -- the caller decides
when the pool dies.  A :func:`weakref.finalize` hook shuts down any pool
still alive at garbage collection or interpreter exit, so an unclosed
executor can never leak worker processes.

Start methods and pool reuse
----------------------------
Under the ``fork`` start method (Linux default) a *fresh* pool inherits
the level context for free via copy-on-write, so per-call pools are
cheap and ``reuse_pool`` defaults to off.  Under ``spawn`` semantics
(macOS/Windows default, and the portable behavior) every pool spawn
boots new interpreters and re-imports the code -- hundreds of
milliseconds per mining level -- so ``reuse_pool`` defaults to on and
one persistent pool serves the whole run.  Both knobs can be forced
explicitly (``ParallelExecutor(reuse_pool=True, start_method="spawn")``),
and the EXT2 benchmark records the measured pool-reuse delta.

Fault tolerance
---------------
Every backend takes a :class:`~repro.resilience.policy.RetryPolicy`.  A
task attempt that raises is retried with deterministic backoff; a task
that exhausts its attempts is quarantined into a
:class:`~repro.resilience.policy.FailedTask` record *in its outcome
slot* instead of killing the job (the miners decide, via their
``strict`` flag, whether that surfaces as an exception).  The process
backend additionally survives pool breaks -- a dead worker, a broken
broadcast barrier, a liveness timeout -- by respawning the pool and
resubmitting only the unfinished tasks, degrading to in-process serial
execution after ``max_pool_breaks`` consecutive breaks.  Attempt bumps
caused by pool breaks are capped below the quarantine threshold, so a
task is only ever quarantined by its *own* failures, never by sharing a
pool with a crashing neighbor.  All of it is observable
(``executor.pool_breaks`` / ``executor.retries`` /
``executor.quarantined`` / ``executor.task_timeouts`` /
``executor.serial_degradations``) and driven in tests by the seeded
fault plans of :mod:`repro.resilience.faults`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import threading
import time
import weakref
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from functools import partial
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.core.instance_index import clear_intern_caches
from repro.exceptions import ConfigError
from repro.obs import counters as metrics
from repro.obs.logging import get_logger
from repro.resilience.faults import fault_task_scope, maybe_fault
from repro.resilience.policy import (
    DEFAULT_RETRY_POLICY,
    FailedTask,
    RetryPolicy,
    task_key_of,
)

logger = get_logger(__name__)

#: Executor names accepted wherever a backend can be chosen.
EXECUTOR_SERIAL = "serial"
EXECUTOR_PARALLEL = "parallel"
EXECUTOR_BACKENDS = (EXECUTOR_SERIAL, EXECUTOR_PARALLEL)

#: The per-thread task context (the read-only level state tasks read).
#: Thread-local so concurrent callers in one process -- each running its
#: own miner, possibly nesting a serial miner like the hierarchical level
#: tasks do -- never trample each other's context.
_TLS = threading.local()

#: Seconds a worker waits for the rest of the pool during a context
#: broadcast before declaring the pool broken.
_BROADCAST_TIMEOUT = 120.0

#: ``_chunk`` heuristics: levels whose per-worker share is at most
#: ``_REBALANCE_PER_WORKER`` tasks use single-task chunks (best load
#: re-balancing when task counts are skewed); larger levels batch tasks
#: but never more than ``_CHUNK_CAP`` per batch, so a worker that drew a
#: run of expensive groups can still hand work back to the pool.
_REBALANCE_PER_WORKER = 4
_CHUNK_CAP = 128


def _set_task_context(context: Any) -> None:
    """Install the level context in this thread (and, via the pool
    initializer or a broadcast, in worker processes)."""
    _TLS.context = context


def get_task_context() -> Any:
    """The level context installed for the currently running tasks."""
    return getattr(_TLS, "context", None)


class MiningExecutor:
    """Interface of an execution backend.

    ``map_tasks(fn, tasks, context)`` must evaluate ``fn(task)`` for every
    task with ``context`` installed (readable via :func:`get_task_context`)
    and yield the outcomes *in task order*.  The returned iterable must be
    consumed before the next ``map_tasks`` call (the miner does): the task
    context is per-process state, not per-call.

    Executors are context managers; backends that own worker pools release
    them in :meth:`close` (a no-op for poolless backends).
    """

    #: Name of the backend ("serial" / "parallel").
    name = "abstract"

    def map_tasks(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any], context: Any
    ) -> Iterable[Any]:
        """Run ``fn`` over ``tasks``; outcomes keep the task order."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources; safe to call twice (default: no-op)."""

    def release_context(self) -> None:
        """Drop any task context still held by idle workers (default: no-op).

        Called at the end of a job that *keeps* the executor alive (the
        pool-reuse path), so a large level context does not stay pinned
        in every worker while the pool idles between jobs.
        """

    def __enter__(self) -> "MiningExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class SerialExecutor(MiningExecutor):
    """In-process, in-order execution -- the classical miner."""

    name = EXECUTOR_SERIAL

    def __init__(self, retry: RetryPolicy | None = None):
        self.retry = retry or DEFAULT_RETRY_POLICY

    def map_tasks(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any], context: Any
    ) -> Iterator[Any]:
        """Lazily evaluate the tasks one after another in this process.

        Laziness keeps the classical memory profile: each group outcome is
        registered (and freed) before the next group is mined, instead of
        holding a whole level's outcomes alive at once.  The previous
        context is restored when the iterator is exhausted or closed --
        restored rather than cleared, because tasks may themselves run a
        nested serial miner (the hierarchical miner's level tasks do), and
        in a parallel worker the pool-installed outer context must survive
        the inner run.

        A task that fails all its retry attempts yields a
        :class:`~repro.resilience.policy.FailedTask` in its slot; there
        is no pool to break, so the retry policy's timeout and
        pool-break knobs do not apply here.
        """
        previous = get_task_context()
        _set_task_context(context)
        policy = self.retry

        def _run() -> Iterator[Any]:
            try:
                for index, task in enumerate(tasks):
                    yield _attempt_task(fn, task, index, 0, policy)
            finally:
                _set_task_context(previous)

        return _run()


# ---------------------------------------------------------------------------
# Worker-side plumbing of the persistent process pool
# ---------------------------------------------------------------------------

#: Barrier shared by the workers of one persistent pool (installed by the
#: pool initializer); coordinates the per-call context broadcasts.
_WORKER_BARRIER = None


def _init_worker(barrier) -> None:
    """Pool initializer of a persistent pool: remember the broadcast
    barrier (the context itself arrives later, per ``map_tasks`` call)."""
    global _WORKER_BARRIER
    _WORKER_BARRIER = barrier


def _receive_context(blob: bytes) -> bool:
    """One worker's share of a context broadcast.

    The parent submits exactly ``max_workers`` of these per ``map_tasks``
    call.  Each worker that picked one up blocks on the barrier until
    every worker holds a context, which guarantees no worker receives two
    broadcasts (it cannot finish before the last worker started) and no
    worker runs a task against a stale context.

    A ``None`` context is the end-of-job release broadcast: besides
    dropping the level context, the worker also clears its flyweight
    pattern/triple caches so an idle kept pool pins no mining state at
    all (see :func:`repro.core.instance_index.clear_intern_caches`).
    """
    context = pickle.loads(blob)
    _set_task_context(context)
    if context is None:
        clear_intern_caches()
    try:
        _WORKER_BARRIER.wait(timeout=_BROADCAST_TIMEOUT)
    except threading.BrokenBarrierError:
        # A peer missed the rendezvous (died mid-broadcast, or the wait
        # timed out).  Abort explicitly so every sibling unblocks *now*
        # instead of burning its own full timeout, then surface the
        # break to the parent, whose recovery loop recycles the pool --
        # a broken barrier never reforms -- and resubmits the level.
        _WORKER_BARRIER.abort()
        raise
    return True


def _release_pool(pool) -> None:
    """Finalizer payload: shut a pool down without blocking GC/exit."""
    pool.shutdown(wait=False, cancel_futures=True)


# ---------------------------------------------------------------------------
# Resilient task execution (all backends)
# ---------------------------------------------------------------------------

#: Exceptions that mean "the pool is gone", not "the task failed":
#: a dead worker process (BrokenProcessPool) or a broadcast barrier
#: that could not reform (a worker died mid-rendezvous).  The recovery
#: loop respawns the pool and resubmits the unfinished tasks.
_POOL_BREAK_ERRORS = (BrokenExecutor, threading.BrokenBarrierError)


def _attempt_task(
    fn: Callable[[Any], Any],
    task: Any,
    index: int,
    start_attempt: int,
    policy: RetryPolicy,
) -> Any:
    """Run one task with bounded in-process retries.

    Returns the task outcome, or a :class:`FailedTask` once
    ``policy.max_attempts`` attempts (counting ``start_attempt`` ones
    already consumed by pool breaks) have failed.  Never raises for a
    task-level failure -- only BaseExceptions (worker kill, interrupt)
    escape.  Each attempt consults the fault plan inside a
    :func:`fault_task_scope`, so injected faults target only the
    outermost dispatch, not miners nested inside a worker's task.
    """
    key = task_key_of(task)
    attempt = start_attempt
    while True:
        try:
            with fault_task_scope():
                maybe_fault("task", index=index, key=key, attempt=attempt)
                return fn(task)
        except Exception as exc:
            attempt += 1
            if attempt >= policy.max_attempts:
                metrics.inc("executor.quarantined")
                logger.warning(
                    "task quarantined",
                    extra={"task": key, "attempts": attempt, "error": repr(exc)},
                )
                return FailedTask(key=key, error=repr(exc), attempts=attempt)
            metrics.inc("executor.retries")
            delay = policy.backoff_s(key, attempt)
            logger.debug(
                "task retry",
                extra={"task": key, "attempt": attempt, "backoff_s": delay},
            )
            if delay > 0:
                time.sleep(delay)


def _run_resilient_batch(
    fn: Callable[[Any], Any],
    policy: RetryPolicy,
    track: bool,
    specs: list[tuple[int, int, Any]],
) -> list[tuple[int, Any, dict | None]]:
    """Worker-side batch runner: ``(index, start_attempt, task)`` specs
    in, ``(index, payload, metric snapshot)`` triples out.

    Module-level (shipped via :func:`functools.partial`) so it pickles
    under every start method.  Results carry their task index because
    the parent's recovery loop tracks completion per *task*, not per
    batch -- a pool break loses only the batches still in flight.
    """
    results: list[tuple[int, Any, dict | None]] = []
    for index, start_attempt, task in specs:
        if track:
            with metrics.capture() as registry:
                payload = _attempt_task(fn, task, index, start_attempt, policy)
            results.append((index, payload, registry.snapshot()))
        else:
            results.append(
                (index, _attempt_task(fn, task, index, start_attempt, policy), None)
            )
    return results


class ParallelExecutor(MiningExecutor):
    """Process-pool execution with a reusable pool and chunked batching.

    Parameters
    ----------
    max_workers:
        Worker processes (default: ``os.cpu_count()``).
    chunk_size:
        Tasks per inter-process batch; ``None`` picks an adaptive size:
        single-task chunks while a worker's share is small (skewed levels
        re-balance instead of serializing behind one big chunk), then
        ``ceil(n / (4 * workers))`` capped at 128 so every worker sees a
        handful of batches and stragglers can shed load.
    min_tasks:
        Levels with fewer tasks than this run serially in-process -- even
        a reused pool costs a context broadcast, which a near-empty level
        never amortizes.  Must be >= 1.
    reuse_pool:
        ``True``: one lazily-spawned pool serves every ``map_tasks`` call
        until :meth:`close`; each call broadcasts its context (pickled
        once, unpickled once per worker).  ``False``: a fresh pool per
        call, context shipped via the pool initializer (free under
        ``fork`` -- copy-on-write).  ``None`` (default) picks ``True``
        exactly when the effective start method is not ``fork``, i.e.
        whenever pool spawns actually cost interpreter boots.
    start_method:
        Multiprocessing start method (``"fork"`` / ``"spawn"`` /
        ``"forkserver"``); ``None`` uses the platform default.
    retry:
        The :class:`~repro.resilience.policy.RetryPolicy` governing task
        retries, quarantine, per-task timeouts, and the pool-break
        budget (default: :data:`~repro.resilience.policy.DEFAULT_RETRY_POLICY`).
        ``retry.timeout_s`` forces single-task chunks so the liveness
        watchdog sees per-task progress.
    """

    name = EXECUTOR_PARALLEL

    def __init__(
        self,
        max_workers: int | None = None,
        chunk_size: int | None = None,
        min_tasks: int = 2,
        reuse_pool: bool | None = None,
        start_method: str | None = None,
        retry: RetryPolicy | None = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise ConfigError(f"max_workers must be >= 1, got {max_workers}")
        if chunk_size is not None and chunk_size < 1:
            raise ConfigError(f"chunk_size must be >= 1, got {chunk_size}")
        if min_tasks < 1:
            raise ConfigError(
                f"min_tasks must be >= 1, got {min_tasks} (1 disables the "
                "serial fallback for small levels)"
            )
        if start_method is not None and start_method not in multiprocessing.get_all_start_methods():
            raise ConfigError(
                f"unknown start method {start_method!r}; this platform "
                f"supports {multiprocessing.get_all_start_methods()}"
            )
        self.max_workers = max_workers or os.cpu_count() or 1
        self.chunk_size = chunk_size
        self.min_tasks = min_tasks
        self.start_method = start_method
        self.retry = retry or DEFAULT_RETRY_POLICY
        if reuse_pool is None:
            reuse_pool = self._effective_start_method() != "fork"
        self.reuse_pool = reuse_pool
        self._pool: ProcessPoolExecutor | None = None
        self._finalizer = None

    def _effective_start_method(self) -> str:
        return self.start_method or multiprocessing.get_start_method()

    def _mp_context(self):
        return multiprocessing.get_context(self.start_method)

    def _chunk(self, n_tasks: int) -> int:
        if self.chunk_size is not None:
            return self.chunk_size
        per_worker = -(-n_tasks // self.max_workers)
        if per_worker <= _REBALANCE_PER_WORKER:
            return 1
        return max(1, min(-(-n_tasks // (4 * self.max_workers)), _CHUNK_CAP))

    # -- pool lifecycle -------------------------------------------------

    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent pool, spawning it on first use."""
        if self._pool is None:
            context = self._mp_context()
            barrier = context.Barrier(self.max_workers)
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=context,
                initializer=_init_worker,
                initargs=(barrier,),
            )
            # Safety net: release the workers at GC / interpreter exit
            # even if the owner forgot to close().
            self._finalizer = weakref.finalize(self, _release_pool, self._pool)
            metrics.inc("executor.pool_spawns")
            logger.info(
                "process pool spawned",
                extra={
                    "workers": self.max_workers,
                    "start_method": self._effective_start_method(),
                    "persistent": True,
                },
            )
        else:
            metrics.inc("executor.pool_reuses")
        return self._pool

    def close(self) -> None:
        """Shut the persistent pool down (idempotent; respawns lazily).

        The pool reference is dropped *before* the blocking shutdown, so
        a second ``close()`` -- including one issued by interrupt
        cleanup while the first is still joining workers -- is a no-op
        rather than a double shutdown.
        """
        if self._pool is not None:
            pool, self._pool = self._pool, None
            if self._finalizer is not None:
                self._finalizer.detach()
                self._finalizer = None
            try:
                pool.shutdown(wait=True, cancel_futures=True)
            except BaseException:
                # Interrupted mid-join (Ctrl-C): release the workers
                # without blocking and let the interrupt propagate.
                pool.shutdown(wait=False, cancel_futures=True)
                raise
            metrics.inc("executor.pool_closes")
            logger.info("process pool closed", extra={"workers": self.max_workers})

    def release_context(self) -> None:
        """Broadcast an empty context so idle workers pin no mining state."""
        if self._pool is None:
            return
        try:
            self._broadcast(self._pool, None)
        except Exception:
            # A pool that cannot even take a broadcast is broken; release
            # it so the next job starts clean.
            self.close()

    def _broadcast(self, pool: ProcessPoolExecutor, context: Any) -> None:
        """Install ``context`` in every worker of the persistent pool.

        The context is pickled once here; each worker unpickles its own
        copy.  Submitting ``max_workers`` barrier-synchronized receive
        tasks also forces the lazily-spawning pool to bring every worker
        up, so the subsequent chunked map never waits on a cold start.
        """
        blob = pickle.dumps(context, protocol=pickle.HIGHEST_PROTOCOL)
        metrics.inc("executor.broadcasts")
        logger.debug(
            "context broadcast",
            extra={"bytes": len(blob), "workers": self.max_workers},
        )
        futures = [
            pool.submit(_receive_context, blob) for _ in range(self.max_workers)
        ]
        for future in futures:
            future.result()

    # -- dispatch -------------------------------------------------------

    def map_tasks(
        self, fn: Callable[[Any], Any], tasks: Sequence[Any], context: Any
    ) -> Iterable[Any]:
        """Fan the tasks out over worker processes, preserving order.

        Tasks are shipped in chunked batches and their outcomes slotted
        back by task index, which makes the parallel mining result
        byte-identical to the serial one.  The context lives in the
        *workers* (broadcast, or pool initializer in per-call mode) and
        is replaced by the next call's broadcast; the parent process
        buffers only the outcomes.

        Dispatch is resilient: a pool break (dead worker, broken
        broadcast barrier, liveness timeout) respawns the pool and
        resubmits only the unfinished tasks; after
        ``retry.max_pool_breaks`` consecutive breaks the remaining
        tasks run serially in-process.  Task-level failures retry per
        the policy inside the worker and quarantine into
        :class:`FailedTask` slots.
        """
        n_tasks = len(tasks)
        if n_tasks < self.min_tasks or self.max_workers == 1:
            metrics.inc("executor.serial_fallbacks")
            return SerialExecutor(retry=self.retry).map_tasks(fn, tasks, context)
        track = metrics.metrics_enabled()
        if track:
            metrics.inc("executor.map_calls")
            metrics.inc("executor.tasks_dispatched", n_tasks)
        logger.debug(
            "dispatching tasks",
            extra={
                "backend": self.name,
                "tasks": n_tasks,
                "workers": self.max_workers,
            },
        )
        return self._map_resilient(fn, tasks, context, track)

    def _acquire_pool(
        self, context: Any, n_pending: int
    ) -> tuple[ProcessPoolExecutor, bool]:
        """A pool with ``context`` installed in its workers.

        Returns ``(pool, owned)``: the persistent broadcast pool
        (``owned=False``) in reuse mode, or a fresh per-call pool with
        the context shipped via the initializer (``owned=True``).
        Raises a pool-break error if the broadcast cannot complete.
        """
        if self.reuse_pool:
            pool = self._ensure_pool()
            self._broadcast(pool, context)
            return pool, False
        metrics.inc("executor.pool_spawns")
        pool = ProcessPoolExecutor(
            max_workers=min(self.max_workers, n_pending),
            mp_context=self._mp_context(),
            initializer=_set_task_context,
            initargs=(context,),
        )
        return pool, True

    def _map_resilient(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        context: Any,
        track: bool,
    ) -> list[Any]:
        """The recovery loop behind :meth:`map_tasks`.

        Each round acquires a pool, submits the still-unfinished tasks
        in chunked batches (single-task batches when ``retry.timeout_s``
        is set, so the liveness watchdog observes per-task progress),
        and harvests completions as they land.  A round that ends in a
        pool break bumps the attempt counters of the unfinished tasks --
        capped at ``max_attempts - 1``, so a break alone can never
        quarantine a task -- recycles the pool, and goes again; after
        ``max_pool_breaks`` *consecutive* broken rounds the remaining
        tasks run serially in this process.  Worker metric snapshots are
        buffered per task and merged in task order at the end, keeping
        gauge last-write-wins semantics identical to a serial run.
        """
        policy = self.retry
        n_tasks = len(tasks)
        payloads: list[Any] = [None] * n_tasks
        snapshots: list[dict | None] = [None] * n_tasks
        start_attempt = [0] * n_tasks
        remaining = set(range(n_tasks))
        consecutive_breaks = 0
        call = partial(_run_resilient_batch, fn, policy, track)

        def _bump(index: int) -> None:
            start_attempt[index] = min(
                start_attempt[index] + 1, policy.max_attempts - 1
            )

        while remaining:
            if consecutive_breaks > policy.max_pool_breaks:
                metrics.inc("executor.serial_degradations")
                logger.warning(
                    "pool broke repeatedly; degrading to serial execution",
                    extra={
                        "pool_breaks": consecutive_breaks,
                        "remaining": len(remaining),
                    },
                )
                self._run_degraded(
                    fn, tasks, context, policy, payloads, start_attempt, remaining
                )
                break
            pending = sorted(remaining)
            try:
                pool, owned = self._acquire_pool(context, len(pending))
            except _POOL_BREAK_ERRORS:
                consecutive_breaks += 1
                metrics.inc("executor.pool_breaks")
                logger.warning(
                    "pool broke during context broadcast",
                    extra={"pool_breaks": consecutive_breaks},
                )
                self.close()
                continue
            chunk = 1 if policy.timeout_s is not None else self._chunk(len(pending))
            if track:
                metrics.observe("executor.chunk_size", chunk)
            broken = False
            try:
                futures: dict[Any, list[int]] = {}
                try:
                    for lo in range(0, len(pending), chunk):
                        batch = pending[lo : lo + chunk]
                        specs = [(i, start_attempt[i], tasks[i]) for i in batch]
                        futures[pool.submit(call, specs)] = batch
                except _POOL_BREAK_ERRORS:
                    broken = True
                not_done = set(futures)
                while not_done:
                    done, not_done = wait(
                        not_done, timeout=policy.timeout_s,
                        return_when=FIRST_COMPLETED,
                    )
                    if not done:
                        # No task finished within the per-task budget:
                        # some worker is stuck, and a stuck worker can
                        # only be reclaimed by recycling the pool.
                        broken = True
                        metrics.inc("executor.task_timeouts", len(not_done))
                        logger.warning(
                            "no task progress within timeout",
                            extra={
                                "timeout_s": policy.timeout_s,
                                "stuck_batches": len(not_done),
                            },
                        )
                        for future in not_done:
                            future.cancel()
                            for index in futures[future]:
                                _bump(index)
                        break
                    for future in done:
                        batch = futures[future]
                        try:
                            results = future.result()
                        except _POOL_BREAK_ERRORS:
                            broken = True
                            for index in batch:
                                if index in remaining:
                                    _bump(index)
                            continue
                        for index, payload, snapshot in results:
                            payloads[index] = payload
                            snapshots[index] = snapshot
                            remaining.discard(index)
            except Exception:
                # Anything that is not a pool break (an unpicklable
                # payload, a bug in the dispatch itself) keeps the old
                # contract: release the pool and raise.
                if owned:
                    pool.shutdown(wait=False, cancel_futures=True)
                else:
                    self.close()
                raise
            if owned:
                pool.shutdown(wait=not broken, cancel_futures=True)
            if broken:
                consecutive_breaks += 1
                metrics.inc("executor.pool_breaks")
                if not owned:
                    # The persistent pool (and its barrier) is dead;
                    # _ensure_pool respawns both next round.
                    self.close()
                logger.warning(
                    "process pool broke; resubmitting unfinished tasks",
                    extra={
                        "pool_breaks": consecutive_breaks,
                        "remaining": len(remaining),
                    },
                )
            else:
                consecutive_breaks = 0
        outcomes: list[Any] = []
        for index in range(n_tasks):
            snapshot = snapshots[index]
            if snapshot is not None:
                metrics.merge(snapshot)
            outcomes.append(payloads[index])
        return outcomes

    def _run_degraded(
        self,
        fn: Callable[[Any], Any],
        tasks: Sequence[Any],
        context: Any,
        policy: RetryPolicy,
        payloads: list[Any],
        start_attempt: list[int],
        remaining: set[int],
    ) -> None:
        """Serial last resort: run the unfinished tasks in this process.

        Attempt counters carry over from the pool rounds, so a task
        that already burned attempts keeps its (capped) budget; metrics
        record directly into the caller's registry (no snapshot
        envelope).  The per-task timeout is unenforceable without a
        pool and is documented as such.
        """
        previous = get_task_context()
        _set_task_context(context)
        try:
            for index in sorted(remaining):
                payloads[index] = _attempt_task(
                    fn, tasks[index], index, start_attempt[index], policy
                )
            remaining.clear()
        finally:
            _set_task_context(previous)


#: Process-wide default backend (see :func:`set_default_executor`).
_DEFAULT_EXECUTOR: MiningExecutor | str = EXECUTOR_SERIAL


def resolve_executor(
    spec: MiningExecutor | str | None, n_workers: int | None = None
) -> MiningExecutor:
    """Turn an executor spec (instance, name, or ``None``) into an instance.

    ``None`` resolves to the process-wide default; ``n_workers`` sizes the
    pool when a *name* is resolved.  Explicitly combining an instance with
    ``n_workers`` is rejected: the instance already fixed its pool size,
    and silently ignoring the request would mine with the wrong width.
    (When the instance only arrives via the process-wide *default*,
    ``n_workers`` is ignored instead -- the caller never chose it, and a
    harness-installed shared pool must keep serving jobs that merely
    carry a worker-count preference.)
    """
    explicit = spec is not None
    if spec is None:
        spec = _DEFAULT_EXECUTOR
    if isinstance(spec, MiningExecutor):
        if n_workers is not None and explicit:
            raise ConfigError(
                f"n_workers={n_workers} conflicts with the provided "
                f"{type(spec).__name__} instance (its pool size is fixed at "
                "construction); size the instance instead, or pass the "
                "backend by name"
            )
        return spec
    if spec == EXECUTOR_SERIAL:
        return SerialExecutor()
    if spec == EXECUTOR_PARALLEL:
        return ParallelExecutor(max_workers=n_workers)
    raise ConfigError(
        f"unknown executor {spec!r}; choose from {EXECUTOR_BACKENDS}"
    )


@contextmanager
def executor_scope(
    spec: MiningExecutor | str | None, n_workers: int | None = None
) -> Iterator[MiningExecutor]:
    """Resolve an executor spec for one job, owning what it creates.

    Engine entry points (:class:`~repro.core.stpm.ESTPM`,
    :class:`~repro.multigrain.engine.HierarchicalMiner`, ...) run their
    dispatches inside this scope: a backend resolved from a *name* (or
    from a name-valued process default) is closed when the job finishes,
    so per-job pools never outlive the job; an *instance* -- the pool-reuse
    path -- stays alive for the caller's next job, but its workers drop the
    finished job's task context (:meth:`MiningExecutor.release_context`)
    so no mining state stays pinned while the pool idles.

    The scope exit also clears this process's flyweight pattern/triple
    caches (:func:`repro.core.instance_index.clear_intern_caches`): a
    live job's interned objects are all referenced by its HLH structures
    and results anyway, so the caches only *pin* patterns of finished
    jobs -- exactly what a job-scoped clear releases.  (Nested scopes --
    A-STPM around its inner E-STPM, hierarchical level jobs -- just
    re-intern at two dict probes per distinct pattern.)
    """
    effective = _DEFAULT_EXECUTOR if spec is None else spec
    owned = not isinstance(effective, MiningExecutor)
    runner = resolve_executor(spec, n_workers)
    try:
        yield runner
    finally:
        if owned:
            runner.close()
        else:
            runner.release_context()
        clear_intern_caches()


def default_executor() -> MiningExecutor | str:
    """The process-wide default executor spec."""
    return _DEFAULT_EXECUTOR


def set_default_executor(spec: MiningExecutor | str) -> MiningExecutor | str:
    """Set the process-wide default executor; returns the previous spec.

    This lets the harness flip whole experiment runs between backends
    without threading a parameter through every experiment function.
    Installing an executor *instance* shares its (persistent) pool across
    every job that resolves the default -- the harness's pool-reuse mode;
    the caller keeps ownership and closes it when the run ends.
    """
    global _DEFAULT_EXECUTOR
    previous = _DEFAULT_EXECUTOR
    if isinstance(spec, str):
        resolve_executor(spec)  # validate the name
    _DEFAULT_EXECUTOR = spec
    return previous
