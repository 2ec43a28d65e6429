"""Fault tolerance for grid sweeps: retries, failure rows, checkpoints.

Three pieces the execution backends and the CLI share:

* :class:`RetryPolicy` — bounded retries with exponential backoff and
  deterministic jitter, per-task wall-clock timeouts, a sweep-level
  failure budget (``max_failures``) and a cap on worker deaths
  before the parallel backend degrades to serial execution;
* :func:`failure_row` — the structured *failure row* a task that
  exhausted its retries becomes (error kind, stage, attempt count,
  traceback digest) instead of aborting the sweep; failure rows travel
  through :class:`~repro.benchsuite.parallel.GridResult` next to
  measurement rows and are marked ``failed: True``;
* :class:`SweepJournal` — an append-only JSONL checkpoint of completed
  rows next to the artifact cache.  An interrupted sweep (Ctrl-C,
  OOM-kill, crash) resumes via ``repro bench --resume`` replaying the
  journal and recomputing nothing already done.  The journal header
  pins the config, package version and code fingerprint; a stale
  journal is discarded rather than replayed.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Union

from .._version import __version__
from ..config import CompilerConfig
from .cache import code_fingerprint

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


# ----------------------------------------------------------------- identity
def task_fingerprint(task: "GridTask", config: CompilerConfig) -> str:
    """A content address of one task under one config/code state.

    Unlike the artifact-cache key this needs no benchmark-source lookup
    (journals must be loadable without compiling anything), but it pins
    the same provenance: config, package version and code fingerprint.
    """
    blob = json.dumps(
        {
            "name": task.name,
            "depth": task.depth,
            "optimization": task.optimization,
            "config": vars(config),
            "version": __version__,
            "code": code_fingerprint(),
        },
        sort_keys=True,
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


def grid_fingerprint(
    tasks: Sequence["GridTask"], config: CompilerConfig
) -> str:
    """A stable name for one task grid (the journal file's identity)."""
    digest = hashlib.sha256()
    for task in tasks:
        digest.update(task_fingerprint(task, config).encode("ascii"))
    return digest.hexdigest()


# ------------------------------------------------------------------ journal
class SweepJournal:
    """Append-only JSONL checkpoint of one grid sweep's completed rows.

    Line 1 is a header pinning the journal format and provenance meta;
    each further line is ``{"fp": <task fingerprint>, "row": {...}}``.
    Rows are flushed as written, so whatever killed the sweep, every
    fully written line is recoverable — a torn trailing line (the write
    the crash interrupted) is detected and ignored on load.  Only
    successful rows are journaled: a failed task runs again on resume.
    """

    FORMAT = 1

    def __init__(self, path: Union[str, Path], meta: Optional[Dict[str, Any]] = None):
        self.path = Path(path)
        self.meta = dict(meta or {})
        self.meta.setdefault("version", __version__)
        self.meta.setdefault("code", code_fingerprint())
        self._handle = None

    @classmethod
    def for_grid(
        cls,
        root: Union[str, Path],
        label: str,
        tasks: Sequence["GridTask"],
        config: CompilerConfig,
    ) -> "SweepJournal":
        """The journal of one (grid, config) sweep under ``root/journal/``."""
        fp = grid_fingerprint(tasks, config)
        path = Path(root) / "journal" / f"{label}-{fp[:16]}.jsonl"
        return cls(path, meta={"label": label, "grid": fp})

    # ---------------------------------------------------------------- reads
    def load(self) -> Dict[str, Dict[str, Any]]:
        """Completed rows by task fingerprint (empty if absent or stale)."""
        try:
            text = self.path.read_text()
        except OSError:
            return {}
        lines = text.splitlines()
        if not lines:
            return {}
        try:
            header = json.loads(lines[0])
        except json.JSONDecodeError:
            return {}
        if (
            not isinstance(header, dict)
            or header.get("journal") != self.FORMAT
            or header.get("meta") != self.meta
        ):
            return {}
        rows: Dict[str, Dict[str, Any]] = {}
        for line in lines[1:]:
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                break  # torn trailing write: everything before it is good
            if not isinstance(entry, dict) or "fp" not in entry or "row" not in entry:
                break
            rows[entry["fp"]] = entry["row"]
        return rows

    def _valid_length(self) -> Optional[int]:
        """Byte length of the journal's valid prefix (``None``: start fresh).

        A torn trailing line — the write a crash interrupted — must be
        truncated before appending, or rows written after it would sit
        unreachable behind the break that :meth:`load` stops at.
        """
        try:
            data = self.path.read_bytes()
        except OSError:
            return None
        offset: Optional[int] = None
        pos = 0
        for line in data.splitlines(keepends=True):
            end = pos + len(line)
            if not line.endswith(b"\n"):
                break  # torn tail: the crash hit mid-write
            try:
                entry = json.loads(line.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError):
                break
            if offset is None:  # header line
                if (
                    not isinstance(entry, dict)
                    or entry.get("journal") != self.FORMAT
                    or entry.get("meta") != self.meta
                ):
                    return None  # stale or foreign journal: replace it
            elif not isinstance(entry, dict) or "fp" not in entry or "row" not in entry:
                break
            offset = end
            pos = end
        return offset

    # --------------------------------------------------------------- writes
    def _open(self):
        if self._handle is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            valid = self._valid_length()
            if valid is None:
                self._handle = open(self.path, "w", encoding="utf-8")
                header = {"journal": self.FORMAT, "meta": self.meta}
                self._handle.write(json.dumps(header, sort_keys=True) + "\n")
                self._handle.flush()
            else:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid)
                self._handle = open(self.path, "a", encoding="utf-8")
        return self._handle

    def append(self, fp: str, row: Dict[str, Any]) -> None:
        """Checkpoint one completed row (flushed immediately)."""
        handle = self._open()
        handle.write(json.dumps({"fp": fp, "row": row}, sort_keys=True) + "\n")
        handle.flush()
        os.fsync(handle.fileno())

    def reset(self) -> None:
        """Discard any previous checkpoint (a non-resume sweep starts clean)."""
        self.close()
        try:
            self.path.unlink()
        except OSError:
            pass

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "SweepJournal":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
