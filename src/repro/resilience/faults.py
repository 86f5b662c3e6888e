"""Deterministic fault injection for the mining runtime.

A :class:`FaultPlan` is a seeded, declarative schedule of failures --
"fail the first attempt of every pair task", "fail task 3 on every
attempt", "interrupt the second durable write" -- that the task runner
and the atomic writer consult at well-known *sites*.  Because the plan
is data (frozen dataclasses of primitives with a JSON round-trip), the
same schedule replays exactly: the chaos suite runs a job twice with
the same plan and asserts the recovery machinery lands on identical
results.

Plans travel two ways.  In-process, :func:`install_fault_plan` sets a
module global and mirrors the plan's JSON into the ``REPRO_FAULT_PLAN``
environment variable, which is how a plan reaches a ``freqstpfts``
subprocess (``scripts/chaos_smoke.py``): the process reconstructs the
active plan lazily on its first :func:`maybe_fault` call.

Injection sites:

``task``
    Consulted by :func:`repro.resilience.policy.run_task` immediately
    before running a task attempt.  Matched by task index, task key
    substring, and attempt number.  Gated to dispatch depth 1 (see
    :func:`fault_task_scope`): the miners a hierarchy-level task runs
    have their own dispatch loops, and without the gate a fault aimed
    at a level task would also fire on the group tasks inside it.
``write``
    Consulted by :func:`repro.io.atomic.write_text_atomic` between
    writing the temp file and the atomic rename.  Matched by write
    index and target-path substring; an ``interrupt`` here simulates a
    crash mid-write and must leave the previous file intact.

Ops: ``raise`` and ``interrupt`` both raise :class:`FaultInjected` (a
transient task failure / a simulated crash mid-write).
"""

from __future__ import annotations

import json
import os
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.exceptions import ConfigError, FaultInjected
from repro.obs import counters as metrics

__all__ = [
    "FAULT_PLAN_ENV",
    "FaultSpec",
    "FaultPlan",
    "install_fault_plan",
    "active_fault_plan",
    "maybe_fault",
    "fault_task_scope",
]

#: Environment variable carrying the active plan's JSON into subprocesses.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

_SITES = ("task", "write")
_OPS = ("raise", "interrupt")


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled failure.

    A spec *matches* a site consultation when the site names agree and
    every constraint that is not ``None`` agrees too: ``index`` equals
    the dispatch index, ``key`` is a substring of the task key / target
    path, ``attempt`` equals the attempt number.  An unconstrained spec
    (``index=key=attempt=None``) matches every consultation of its
    site -- useful with ``attempt=0`` to mean "fail the first try of
    everything, then let retries succeed".
    """

    site: str
    op: str
    index: int | None = None
    key: str | None = None
    attempt: int | None = None

    def __post_init__(self) -> None:
        if self.site not in _SITES:
            raise ConfigError(f"unknown fault site {self.site!r}; expected one of {_SITES}")
        if self.op not in _OPS:
            raise ConfigError(f"unknown fault op {self.op!r}; expected one of {_OPS}")

    def matches(self, site: str, index: int | None, key: str | None, attempt: int | None) -> bool:
        if site != self.site:
            return False
        if self.index is not None and index != self.index:
            return False
        if self.key is not None and (key is None or self.key not in key):
            return False
        if self.attempt is not None and attempt != self.attempt:
            return False
        return True

    def as_dict(self) -> dict[str, object]:
        return {
            "site": self.site,
            "op": self.op,
            "index": self.index,
            "key": self.key,
            "attempt": self.attempt,
        }

    @classmethod
    def from_dict(cls, data: dict[str, object]) -> "FaultSpec":
        return cls(
            site=str(data["site"]),
            op=str(data["op"]),
            index=None if data.get("index") is None else int(data["index"]),  # type: ignore[arg-type]
            key=None if data.get("key") is None else str(data["key"]),
            attempt=None if data.get("attempt") is None else int(data["attempt"]),  # type: ignore[arg-type]
        )


@dataclass(frozen=True)
class FaultPlan:
    """A seeded schedule of :class:`FaultSpec` entries.

    The ``seed`` does not drive an RNG -- the schedule itself is fully
    explicit -- it labels the scenario so traces, checkpoints, and test
    parametrizations can name which chaos schedule produced a run.
    """

    seed: int = 0
    faults: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        # Tolerate list literals in hand-written plans.
        if not isinstance(self.faults, tuple):
            object.__setattr__(self, "faults", tuple(self.faults))

    def matching(self, site: str, *, index: int | None = None, key: str | None = None, attempt: int | None = None) -> tuple[FaultSpec, ...]:
        return tuple(
            spec for spec in self.faults if spec.matches(site, index, key, attempt)
        )

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "faults": [spec.as_dict() for spec in self.faults]},
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid fault plan JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("fault plan JSON must be an object")
        faults = tuple(
            FaultSpec.from_dict(entry) for entry in data.get("faults", [])
        )
        return cls(seed=int(data.get("seed", 0)), faults=faults)


# The in-process plan.  ``None`` means "consult the environment" --
# a subprocess launched with REPRO_FAULT_PLAN has no global set.
_ACTIVE: FaultPlan | None = None

# Parsed-environment cache: (raw json string, parsed plan).  The task
# runner calls maybe_fault() once per task attempt; parsing JSON once
# per call would be absurd, and the env var never changes mid-run.
_ENV_CACHE: tuple[str, FaultPlan] | None = None

_TLS = threading.local()


def install_fault_plan(plan: FaultPlan | None) -> None:
    """Install *plan* process-wide (or uninstall with ``None``).

    Also mirrors the plan into ``REPRO_FAULT_PLAN`` so subprocesses see
    the same schedule.  Call with ``None`` in a ``finally`` block to
    restore production behavior.
    """
    global _ACTIVE, _ENV_CACHE
    _ACTIVE = plan
    _ENV_CACHE = None
    if plan is None:
        os.environ.pop(FAULT_PLAN_ENV, None)
    else:
        os.environ[FAULT_PLAN_ENV] = plan.to_json()


def active_fault_plan() -> FaultPlan | None:
    """The currently effective plan: installed global, else environment."""
    global _ENV_CACHE
    if _ACTIVE is not None:
        return _ACTIVE
    raw = os.environ.get(FAULT_PLAN_ENV)
    if not raw:
        return None
    if _ENV_CACHE is not None and _ENV_CACHE[0] == raw:
        return _ENV_CACHE[1]
    plan = FaultPlan.from_json(raw)
    _ENV_CACHE = (raw, plan)
    return plan


def _depth() -> int:
    return getattr(_TLS, "depth", 0)


@contextmanager
def fault_task_scope() -> Iterator[int]:
    """Mark one level of task dispatch; yields the new depth.

    :func:`~repro.resilience.policy.run_task` wraps every task attempt
    in this scope.  ``task``-site faults fire only at depth 1, so the
    miners a hierarchy-level task runs (their own dispatch loops, depth
    2) never see the faults aimed at the level tasks themselves.
    """
    depth = _depth() + 1
    _TLS.depth = depth
    try:
        yield depth
    finally:
        _TLS.depth = depth - 1


def maybe_fault(site: str, *, index: int | None = None, key: str | None = None, attempt: int | None = None) -> None:
    """Consult the active plan at an injection site; no-op without one.

    The first matching spec (in plan order) raises :class:`FaultInjected`.
    """
    plan = active_fault_plan()
    if plan is None:
        return
    if site == "task" and _depth() != 1:
        return
    for spec in plan.matching(site, index=index, key=key, attempt=attempt):
        metrics.inc(f"faults.injected.{spec.op}")
        # "raise" and "interrupt" both surface as FaultInjected; the
        # distinction is the site they are aimed at.
        raise FaultInjected(
            f"fault plan (seed={plan.seed}): {spec.op} at {site} index={index} key={key!r} attempt={attempt}"
        )
