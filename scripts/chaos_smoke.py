#!/usr/bin/env python3
"""CI smoke for the resilience layer: crash a multigrain job, resume it.

Runs the ``freqstpfts multigrain`` CLI in subprocesses, end to end:

1. uninjected, archiving the baseline multi-level result;
2. with a ``REPRO_FAULT_PLAN`` that fails one level task after all its
   retries -- the strict job must exit 1 without a traceback, leaving
   its ``--resume`` job-progress checkpoint holding the completed level;
3. with the fault cleared and the same ``--resume`` path -- the job
   must skip the checkpointed level, mine the one that failed, and
   archive a result equivalent to the baseline.

Exit code 0 on success, 1 on failure, with one verdict line per leg.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

# Allow running straight from a checkout without installing.
_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.core.results import results_equivalent  # noqa: E402
from repro.io.results_json import load_results_archive  # noqa: E402
from repro.resilience import FAULT_PLAN_ENV, FaultPlan, FaultSpec  # noqa: E402

#: One small two-level hierarchy job; every leg runs these arguments.
JOB = [
    "multigrain",
    "--dataset", "RE",
    "--profile", "tiny",
    "--multiples", "1", "2",
    "--min-season", "4",
]

#: Fails every attempt of the second level task (the first level is the
#: completed work the resume must skip).
CRASH_PLAN = FaultPlan(
    seed=42, faults=(FaultSpec(site="task", op="raise", index=1),)
)


def run_cli(extra: list[str], plan: FaultPlan | None = None) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(_SRC)
    env.pop(FAULT_PLAN_ENV, None)
    if plan is not None:
        env[FAULT_PLAN_ENV] = plan.to_json()
    return subprocess.run(
        [sys.executable, "-m", "repro.harness.cli", *JOB, *extra],
        env=env,
        capture_output=True,
        text=True,
    )


def archives_equivalent(left_path: Path, right_path: Path) -> bool:
    left, right = load_results_archive(left_path), load_results_archive(right_path)
    if left.ratios != right.ratios:
        return False
    return all(
        results_equivalent(mine.result, theirs.result)
        for mine, theirs in zip(left, right)
    )


def fail(message: str) -> int:
    print(f"chaos smoke: FAIL -- {message}")
    return 1


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="chaos-smoke-") as tmp:
        tmpdir = Path(tmp)
        baseline = tmpdir / "baseline.json"
        resumed = tmpdir / "resumed.json"
        checkpoint = tmpdir / "job.ckpt.json"

        leg = run_cli(["--output", str(baseline)])
        if leg.returncode != 0:
            return fail(f"baseline run exited {leg.returncode}:\n{leg.stderr}")
        print("chaos smoke: baseline archived")

        leg = run_cli(
            ["--resume", str(checkpoint), "--max-retries", "1"], plan=CRASH_PLAN
        )
        if leg.returncode != 1:
            return fail(
                f"injected run exited {leg.returncode}; expected the strict job "
                f"to abort with exit 1"
            )
        if "Traceback" in leg.stderr:
            return fail(f"injected run printed a traceback:\n{leg.stderr}")
        if not checkpoint.exists():
            return fail("crashed run left no job checkpoint")
        completed = json.loads(checkpoint.read_text())["outcomes"]
        print(
            f"chaos smoke: injected run aborted (exit {leg.returncode}) "
            f"with {len(completed)} level(s) checkpointed"
        )

        leg = run_cli(["--resume", str(checkpoint), "--output", str(resumed)])
        if leg.returncode != 0:
            return fail(f"resumed run exited {leg.returncode}:\n{leg.stderr}")
        if not archives_equivalent(resumed, baseline):
            return fail("resumed archive differs from the baseline")
        print("chaos smoke: resume == fresh run")

    print("chaos smoke: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
