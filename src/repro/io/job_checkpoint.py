"""Durable job-progress checkpoints for long mining runs.

A :class:`JobCheckpoint` records the outcome of every *completed* task
of a long-running dispatch -- the per-group step-2.2 tasks of
:meth:`repro.core.stpm.ESTPM.mine`, the per-level tasks of
:class:`repro.multigrain.engine.HierarchicalMiner` -- so that a run
killed partway (machine crash, interrupt, exhausted pool budget) can be
resumed skipping the finished work (``freqstpfts run/multigrain
--resume PATH``).

The on-disk format is a versioned JSON envelope::

    {
      "format_version": 3,
      "fingerprint": {"job": "estpm", "level": 2, ...},
      "outcomes": {"<task key>": "<base64 pickle>", ...}
    }

* ``fingerprint`` binds the checkpoint to one logical job.  Opening a
  checkpoint *verifies* the stored fingerprint against the resuming
  job's (parameters, dataset shape, job kind) and refuses to resume a
  different job's progress -- silently mixing outcomes from a different
  dataset would fabricate results.  A fresh path simply adopts the
  fingerprint.
* ``outcomes`` maps stable task keys (never list positions -- the
  resumed job may dispatch a different remainder) to pickled outcome
  payloads, base64-wrapped so the envelope stays valid JSON.
* Every write goes through :func:`repro.io.atomic.write_text_atomic`,
  so a crash mid-flush leaves the previous consistent checkpoint.
  Quarantined failures are *not* recorded: a failed task is retried by
  the resumed run.

Pickled outcomes are only as trustworthy as the file they live in;
checkpoints are private job state, not an interchange format.
"""

from __future__ import annotations

import base64
import json
import pickle
from pathlib import Path
from typing import Any

from repro.exceptions import ConfigError
from repro.io.atomic import write_text_atomic
from repro.obs import counters as metrics
from repro.obs.logging import get_logger

__all__ = ["JobCheckpoint", "FORMAT_VERSION"]

logger = get_logger(__name__)

#: Version 3: step-2.2 outcomes gated by the season-chain bound
#: (:func:`~repro.core.seasonality.is_season_candidate`).  Older files
#: hold outcomes of looser gates -- version 1 the cardinality-only
#: maxSeason, version 2 the near-set bound -- including groups this
#: build rejects, with their patterns, so a resume mixing the two would
#: report candidate counts of neither gate; they are refused.
FORMAT_VERSION = 3

#: What a damaged or foreign outcome blob raises on decode: bad base64
#: (``binascii.Error``, a ``ValueError``), a truncated or corrupt pickle
#: stream, or a pickle naming a class or module this build does not have.
_UNDECODABLE = (
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,
)

#: Records buffered between automatic flushes.  Small enough that a
#: crash loses little progress, large enough that checkpointing a
#: many-task level is not one rewrite per task.
DEFAULT_FLUSH_EVERY = 32


class JobCheckpoint:
    """Completed-task outcomes of one job, mirrored to a durable file.

    Opening an existing path loads (and fingerprint-verifies) its
    outcomes; a missing path starts empty and adopts the fingerprint.
    ``record`` buffers outcomes and flushes atomically every
    ``flush_every`` records; callers flush once more when the job
    finishes cleanly (see :meth:`flush`).
    """

    def __init__(
        self,
        path: str | Path,
        fingerprint: dict[str, Any],
        *,
        flush_every: int = DEFAULT_FLUSH_EVERY,
    ):
        if flush_every < 1:
            raise ConfigError(f"flush_every must be >= 1, got {flush_every}")
        self.path = Path(path)
        self.fingerprint = dict(fingerprint)
        self.flush_every = flush_every
        self._outcomes: dict[str, Any] = {}
        self._dirty = 0
        if self.path.exists():
            self._load()

    def _load(self) -> None:
        try:
            data = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(
                f"cannot read job checkpoint {self.path}: {exc}"
            ) from exc
        if not isinstance(data, dict):
            raise ConfigError(
                f"job checkpoint {self.path} is not a JSON object"
            )
        version = data.get("format_version")
        if version != FORMAT_VERSION:
            raise ConfigError(
                f"job checkpoint {self.path} has format_version {version!r}; "
                f"this build reads version {FORMAT_VERSION}. Delete the file, "
                "or point --resume at a fresh path."
            )
        stored = data.get("fingerprint", {})
        if stored != self.fingerprint:
            raise ConfigError(
                f"job checkpoint {self.path} belongs to a different job: "
                f"stored fingerprint {stored!r} != current {self.fingerprint!r}. "
                "Resuming it here would mix outcomes across jobs; point "
                "--resume at this job's own checkpoint (or a fresh path)."
            )
        for key, blob in data.get("outcomes", {}).items():
            try:
                self._outcomes[key] = pickle.loads(base64.b64decode(blob))
            except _UNDECODABLE as exc:
                raise ConfigError(
                    f"job checkpoint {self.path} holds an undecodable outcome "
                    f"for task {key!r} ({type(exc).__name__}: {exc}); it is "
                    "damaged or was written by an incompatible version. "
                    "Delete the file, or point --resume at a fresh path."
                ) from exc
        logger.info(
            "job checkpoint loaded",
            extra={"path": str(self.path), "completed": len(self._outcomes)},
        )

    # -- progress queries ----------------------------------------------

    def __len__(self) -> int:
        return len(self._outcomes)

    def __contains__(self, key: str) -> bool:
        return key in self._outcomes

    def get(self, key: str) -> Any:
        """The recorded outcome of a completed task key."""
        return self._outcomes[key]

    # -- progress recording --------------------------------------------

    def record(self, key: str, outcome: Any) -> None:
        """Record one completed task; flushes every ``flush_every`` records."""
        self._outcomes[key] = outcome
        self._dirty += 1
        if self._dirty >= self.flush_every:
            self.flush()

    def flush(self) -> None:
        """Atomically persist the current progress (no-op when clean)."""
        if self._dirty == 0 and self.path.exists():
            return
        payload = {
            "format_version": FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "outcomes": {
                key: base64.b64encode(
                    pickle.dumps(outcome, protocol=pickle.HIGHEST_PROTOCOL)
                ).decode("ascii")
                for key, outcome in self._outcomes.items()
            },
        }
        write_text_atomic(self.path, json.dumps(payload, sort_keys=True) + "\n")
        metrics.inc("resume.checkpoint_flushes")
        self._dirty = 0
