"""Fault tolerance for grid sweeps: retries and failure rows.

Two pieces the execution backends share:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter, per-task wall-clock timeouts, a sweep-level
  failure budget (``max_failures``) and a cap on worker deaths
  before the parallel backend degrades to serial execution;
* :func:`failure_row` — the structured *failure row* a task that
  exhausted its retries becomes (error kind, stage, attempt count,
  traceback digest) instead of aborting the sweep; failure rows travel
  through :class:`~repro.benchsuite.parallel.GridResult` next to
  measurement rows and are marked ``failed: True``.

An interrupted sweep (Ctrl-C, OOM-kill, crash) needs no checkpoint of
its own: the artifact cache stores each row as it lands, so running the
same sweep again on the same cache replays what was done and computes
only the rest.
"""

from __future__ import annotations

import hashlib
import traceback
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .parallel import GridTask


@dataclass(frozen=True)
class RetryPolicy:
    """How a sweep responds to failing, hanging, or crashing tasks."""

    #: retry budget per task (attempts = retries + 1); pool-death
    #: reschedules do not count against it
    retries: int = 2
    #: per-task wall-clock timeout (None: unbounded); a late task's
    #: worker is restarted, and the task retried
    task_timeout: Optional[float] = None
    #: abort the sweep once more than this many tasks have *exhausted*
    #: their retries (None: never abort)
    max_failures: Optional[int] = None
    #: worker deaths (crash, OOM-kill) tolerated before degrading to serial
    #: execution; a worker restarted for a late task does not count
    max_pool_deaths: int = 3
    #: first backoff delay; doubles per failure up to ``backoff_cap``
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    #: seed of the deterministic backoff jitter
    seed: int = 0

    def backoff_delay(self, key: str, failure: int) -> float:
        """Exponential backoff with deterministic jitter in [1.0, 1.5)."""
        base = min(self.backoff_cap, self.backoff_base * (2 ** max(0, failure - 1)))
        blob = f"{self.seed}|backoff|{key}|{failure}".encode("utf-8")
        word = int.from_bytes(hashlib.sha256(blob).digest()[:8], "little")
        return base * (1.0 + 0.5 * (word / 2**64))


def traceback_digest(exc: BaseException) -> str:
    """A short stable digest of an exception's traceback (for grouping)."""
    text = "".join(traceback.format_exception(type(exc), exc, exc.__traceback__))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def error_kind(exc: BaseException) -> str:
    """The failure-row classification of an exception."""
    from ..faults import InjectedCrash, InjectedFault

    if isinstance(exc, TimeoutError):
        return "timeout"
    if isinstance(exc, InjectedCrash):
        return "crash"
    if isinstance(exc, InjectedFault):
        return "transient"
    return f"exception:{type(exc).__name__}"


def failure_row(
    task: "GridTask",
    exc: BaseException,
    stage: str,
    attempts: int,
) -> Dict[str, Any]:
    """The structured row a task becomes after exhausting its retries.

    Schema: ``failed`` (always True), the task identity fields (``name``,
    ``depth``, ``optimization``), ``error_kind``,
    ``stage`` (``execute`` | ``spawn`` | ``pool``), ``attempts``,
    ``message`` and ``traceback_digest``.
    """
    return {
        "failed": True,
        "name": task.name,
        "depth": task.depth,
        "optimization": task.optimization,
        "error_kind": error_kind(exc),
        "stage": stage,
        "attempts": attempts,
        "message": str(exc)[:500],
        "traceback_digest": traceback_digest(exc),
    }
