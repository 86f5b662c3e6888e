"""Fault tolerance for the mining runtime: retries, quarantine, chaos.

The package is stdlib-only and splits into two halves:

* :mod:`repro.resilience.policy` -- the *recovery* side: a configurable
  :class:`RetryPolicy` (bounded attempts, exponential backoff with
  deterministic jitter), :func:`run_task`, the one place a mining task
  runs, and the :class:`FailedTask` quarantine record that a task
  failing all its attempts collapses into instead of killing the whole
  job.
* :mod:`repro.resilience.faults` -- the *chaos* side: a seeded,
  declarative :class:`FaultPlan` (fail that task, interrupt that durable
  write) injectable into the task runner and the atomic writer,
  including into a ``freqstpfts`` subprocess via the
  ``REPRO_FAULT_PLAN`` environment variable.  This is how every
  recovery path in this package is tested.

Everything here is deliberately plain frozen dataclasses of primitives:
quarantine records ride task outcome streams and fault plans ride the
environment, so they stay picklable and JSON-able (checked by the EP
analyzer rules).
"""

from __future__ import annotations

from repro.resilience.faults import (
    FAULT_PLAN_ENV,
    FaultPlan,
    FaultSpec,
    active_fault_plan,
    fault_task_scope,
    install_fault_plan,
    maybe_fault,
)
from repro.resilience.policy import (
    DEFAULT_RETRY_POLICY,
    FailedTask,
    RetryPolicy,
    run_task,
)

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultPlan",
    "FaultSpec",
    "active_fault_plan",
    "fault_task_scope",
    "install_fault_plan",
    "maybe_fault",
    "DEFAULT_RETRY_POLICY",
    "FailedTask",
    "RetryPolicy",
    "run_task",
]
