"""Retry policies, failure quarantine records, and the task runner.

A :class:`RetryPolicy` describes how the miners respond to task
failures: how many attempts each task gets and how long to back off
between attempts (exponential with *deterministic* jitter -- the
schedule is a pure function of the task key and attempt number, so
chaos runs and their re-runs sleep identically).

:func:`run_task` is the one place a mining task runs: the miners'
dispatch loops hand it every group task and hierarchy-level task in
turn.  A task that exhausts its attempts is *quarantined* into a
:class:`FailedTask` record instead of aborting the job: the miner
collects it into ``MiningResult.failures``, and the job's ``strict``
flag decides whether that surfaces as an exception (the default) or as
a partial result.

Both classes are frozen dataclasses of primitives only: quarantine
records ride outcome streams, and the pickling rules keep them safe to
store next to the outcomes of a job checkpoint.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.exceptions import ConfigError
from repro.obs import counters as metrics
from repro.obs.logging import get_logger
from repro.resilience.faults import fault_task_scope, maybe_fault

__all__ = [
    "RetryPolicy",
    "FailedTask",
    "DEFAULT_RETRY_POLICY",
    "run_task",
    "task_key_of",
]

logger = get_logger(__name__)


def task_key_of(task: object) -> str:
    """The stable string identity of one task.

    Tasks are plain key tuples (event pairs, ``(group, event)`` pairs,
    level indexes), so ``repr`` is deterministic across processes and
    runs -- unlike ``hash()``, which is salted per interpreter.
    """
    return repr(task)


@dataclass(frozen=True)
class RetryPolicy:
    """How the miners respond to task failures.

    Parameters
    ----------
    max_attempts:
        Total attempts per task (>= 1).  ``1`` disables retries: the
        first failure quarantines immediately.
    backoff_base_s:
        Delay before the first retry; each further retry multiplies it
        by ``backoff_multiplier``, capped at ``backoff_max_s``.
    jitter_pct:
        Fraction of the base delay added/subtracted deterministically
        per ``(task, attempt)`` (see :meth:`backoff_s`), so retry storms
        de-synchronize without making runs irreproducible.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max_s: float = 5.0
    jitter_pct: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.backoff_base_s < 0 or self.backoff_max_s < 0:
            raise ConfigError("backoff delays must be >= 0")
        if self.backoff_multiplier < 1.0:
            raise ConfigError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if not 0.0 <= self.jitter_pct < 1.0:
            raise ConfigError(
                f"jitter_pct must be in [0, 1), got {self.jitter_pct}"
            )

    def backoff_s(self, task_key: str, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based) of one task.

        Pure function of ``(task_key, attempt)``: the exponential base is
        jittered by a fraction drawn from a stable BLAKE2 digest rather
        than a process RNG, so two runs of the same chaos schedule sleep
        the same amounts (the hypothesis suite pins this determinism).
        """
        if attempt < 1:
            raise ConfigError(f"attempt must be >= 1, got {attempt}")
        base = self.backoff_base_s * self.backoff_multiplier ** (attempt - 1)
        base = min(base, self.backoff_max_s)
        if base == 0.0 or self.jitter_pct == 0.0:
            return base
        digest = hashlib.blake2b(
            f"{task_key}#{attempt}".encode(), digest_size=8
        ).digest()
        fraction = int.from_bytes(digest, "big") / 2.0**64  # [0, 1)
        return base * (1.0 + self.jitter_pct * (2.0 * fraction - 1.0))


#: The policy used when a miner is built without one: bounded retries
#: with sub-second backoff.  With no faults injected and no failing
#: tasks this is byte-for-byte the pre-resilience behavior (nothing ever
#: retries).
DEFAULT_RETRY_POLICY = RetryPolicy()


@dataclass(frozen=True)
class FailedTask:
    """The quarantine record of one task that failed all its attempts.

    Carries the stable task key, the ``repr`` of the last exception (a
    string, not the exception object -- reprs pickle and JSON-serialize),
    and how many attempts were consumed.  :func:`run_task` returns it in
    place of the failed task's outcome; the miners collect it into
    ``MiningResult.failures`` / raise it from strict jobs.
    """

    key: str
    error: str
    attempts: int

    def describe(self) -> str:
        """Readable one-line rendering."""
        return f"{self.key}: {self.error} (after {self.attempts} attempts)"


def run_task(
    fn: Callable[[Any, Any], Any],
    task: Any,
    context: Any,
    index: int,
    policy: RetryPolicy | None = None,
) -> Any:
    """Run ``fn(task, context)`` with bounded in-process retries.

    Returns the task outcome, or a :class:`FailedTask` once
    ``policy.max_attempts`` attempts have failed (counted in
    ``executor.quarantined``; each retry counts in ``executor.retries``).
    Never raises for a task-level failure -- only BaseExceptions
    (interrupts) escape.  ``index`` is the task's position among the
    tasks its dispatch loop runs, which ``task``-site fault specs match
    on.  Each attempt consults the fault plan inside a
    :func:`fault_task_scope`, so injected faults target only the
    outermost dispatch, not the miners a hierarchy-level task nests.
    """
    policy = policy or DEFAULT_RETRY_POLICY
    key = task_key_of(task)
    attempt = 0
    while True:
        try:
            with fault_task_scope():
                maybe_fault("task", index=index, key=key, attempt=attempt)
                return fn(task, context)
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
