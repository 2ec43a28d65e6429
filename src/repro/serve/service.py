"""The compile service behind ``repro serve``: dedupe, dispatch, memos.

One :class:`CompileService` owns a
:class:`~repro.benchsuite.runner.BenchmarkRunner`, a
:class:`~repro.benchsuite.parallel.ParallelBackend` and the shared
:class:`~repro.benchsuite.cache.ArtifactCache`, and fronts them with
service semantics:

* **one task per request** — a request that needs the compiler goes to
  the backend on arrival as one :class:`ServeTask`, which runs where the
  compile runs (the worker that owns its key, or the one task thread at
  ``--jobs 1``): the admission lint on that runner's frontend memo, whose
  parse, desugar and strict typecheck the compile reuses, the checks
  that need the parsed program, and the measure.  A lint with error
  findings is the task's 422 answer.  The event loop runs HTTP, field
  checks, dedupe and the memos, and no frontend code;
* **single-flight dedupe** — identical concurrent requests share one
  task and compile exactly once;
* **completed-answer memo** — a repeat of a completed request (a row, a
  lint report or a rejection) is answered on the event loop with no lint
  and no task, a row flagged ``cached: True``; an answer evicted past
  :data:`COMPLETED_MAX` runs as a task again, a row replaying from the
  artifact cache;
* **durability** — the artifact cache is the only restart store, keyed
  by source, config and code fingerprint; nothing else outlives the
  process;
* **bounded cache** — with ``cache_max_bytes`` set, the artifact cache
  is pruned (LRU, stale temps swept) at most once per
  :data:`PRUNE_INTERVAL`, on a thread of its own.

Workers return their cache's counter increments with every row, so
``/cache/stats`` counts their loads with nothing written to disk for
them, and ``/metrics`` gauges the workers started (``worker_starts``).
Admitted inline programs are kept by
:func:`~repro.benchsuite.programs.remember_inline`, a bounded memo, so
that ``/measure`` resolves a recent ``src:`` name.
"""

from __future__ import annotations

import asyncio
import functools
import hashlib
import json
import time
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import Any, Dict, Optional, Tuple

from ..analysis import lint_source
from ..benchsuite.cache import ArtifactCache
from ..benchsuite.parallel import ParallelBackend, task_key
from ..benchsuite.programs import (
    get_entry,
    get_source,
    is_unsized,
    registered,
    remember_inline,
)
from ..benchsuite.resilience import RetryPolicy
from ..benchsuite.runner import BenchmarkRunner
from ..bounded import BoundedCache
from ..config import CompilerConfig
from ..errors import ReproError
from .dedupe import SingleFlight
from .metrics import Metrics

#: completed answers kept for repeats (least recently used evicted)
COMPLETED_MAX = 4096

#: recent keys whose compile count the dedupe gauges report
EXECUTIONS_WINDOW = 4096

#: seconds between two prunes of the artifact cache
PRUNE_INTERVAL = 1.0

#: a task's answer: ``{"status": int, "body": dict}``
Answer = Dict[str, Any]


def inline_name(source: str, entry: str) -> str:
    """The content-derived benchmark name of an inline-source request."""
    digest = hashlib.sha256(f"{entry}\n{source}".encode("utf-8")).hexdigest()
    return f"src:{digest[:16]}"


def source_digest(source: str) -> str:
    """The identity of an inline program: its source's content digest."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _answer(status: int, body: Dict[str, Any]) -> Answer:
    return {"status": status, "body": body}


def _error(message: str) -> Answer:
    """The request is at fault (a 400)."""
    return _answer(400, {"error": message})


def _lint_answer(status: int, report, **extra: Any) -> Answer:
    return _answer(status, {**json.loads(report.render_json()), **extra})


def _missing_depth(entry: str) -> Answer:
    """A sized entry cannot compile without a recursion bound."""
    return _error(f"missing required field 'depth': {entry!r} takes a recursion bound")


def _takes_size(runner, source: str, entry: str) -> bool:
    """Whether ``entry`` declares a recursion bound (False when the source
    does not parse or lacks it; the compile reports those itself).  The
    parse is the runner's, shared with the lint and the compile."""
    try:
        return runner.frontend.program(source).fun(entry).size_param is not None
    except (ReproError, KeyError):
        return False


@dataclass(frozen=True)
class ServeTask:
    """One ``/compile``, ``/measure`` or ``/lint`` request as a backend task:
    the request's fields (``depth`` is ``/lint``'s size), the ``source`` of
    an inline program and the ``program``'s identity (a built-in or fuzz
    name, or :func:`source_digest`)."""

    path: str
    program: str
    source: Optional[str] = None
    entry: Optional[str] = None
    name: Optional[str] = None
    depth: Optional[int] = None
    optimization: str = "none"
    lint: bool = True

    def key(self) -> Tuple[str, Optional[int], str]:
        return task_key(self.program, self.depth, self.optimization)

    def label(self) -> str:
        return f"{self.path} {self.name or self.program[:16]}@{self.depth} [{self.optimization}]"

    def request_key(self, config: CompilerConfig) -> Tuple:
        """What dedupe and the completed memo key on: everything the
        service knows before dispatch, the source as its digest."""
        return replace(self, source=None), config

    def run(self, runner) -> Answer:
        """Lint, check and measure on ``runner``; the response."""
        source, entry, name = self.source, self.entry, self.name
        if source is None:
            try:
                source, entry = get_source(name), get_entry(name)
            except (KeyError, ValueError):
                return _error(f"unknown benchmark {name!r}")
        if (
            self.path == "measure"
            and self.depth is None
            and not is_unsized(name)
            and _takes_size(runner, source, entry)
        ):
            return _missing_depth(entry)
        if self.lint:
            report = lint_source(
                source,
                entry=entry,
                size=self.depth,
                config=runner.config,
                frontend=runner.frontend,
            )
            if self.path == "lint":
                code = report.exit_code()
                return _lint_answer(422 if code else 200, report, exit_code=code)
            if report.errors:
                return _lint_answer(422, report, admitted=False)
        extra = {"name": name}
        if self.path == "compile":
            entry = entry or report.entry
            if entry is None:
                return _error("program defines no functions (nothing to compile)")
            if self.depth is None and report.size is not None:
                return _missing_depth(entry)
            name = inline_name(source, entry)
            extra = {"name": name, "entry": entry, "warnings": len(report.diagnostics)}
        with registered(name, (source, entry) if self.source is not None else None):
            row = runner.measure(name, self.depth, self.optimization).row()
        return _answer(200, {"row": row, **extra})


class CompileService:
    """Admission-checked, deduplicated grid execution, one task per request."""

    def __init__(
        self,
        config: Optional[CompilerConfig] = None,
        cache: Optional[ArtifactCache] = None,
        jobs: int = 1,
        policy: Optional[RetryPolicy] = None,
        cache_max_bytes: Optional[int] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.config = config or CompilerConfig()
        self.cache = cache
        self.cache_max_bytes = cache_max_bytes
        self.metrics = metrics or Metrics()
        self.backend = ParallelBackend(jobs=jobs, policy=policy)
        self.runner = BenchmarkRunner(self.config, cache=cache)
        self.flight = SingleFlight()
        #: request key -> ``(status, body)`` its task answered in this run
        self._completed = BoundedCache(COMPLETED_MAX)
        #: request key -> times its task compiled, for the recent keys (the
        #: dedupe proof: the loadgen asserts every value here is 1)
        self._executions: "OrderedDict[Tuple, int]" = OrderedDict()
        #: dispatched tasks and running prunes, awaited by :meth:`close`
        self._pending: set = set()
        self._pruned_at = float("-inf")
        self._register_gauges()

    async def close(self) -> None:
        """Wait for the tasks in flight, then stop the backend."""
        while self._pending:
            await asyncio.gather(*list(self._pending), return_exceptions=True)
        self.backend.close()

    def _register_gauges(self) -> None:
        self.metrics.gauge("queue_depth", lambda: len(self._pending))
        self.metrics.gauge("inflight_keys", lambda: len(self.flight))
        self.metrics.gauge("distinct_keys", lambda: len(self._executions))
        self.metrics.gauge(
            "max_compiles_per_key",
            lambda: max(self._executions.values(), default=0),
        )
        self.metrics.gauge("completed_keys", lambda: len(self._completed))
        self.metrics.gauge("worker_starts", lambda: self.backend.worker_starts)

    # ----------------------------------------------------------- execution
    async def submit(self, task: ServeTask) -> Tuple[int, Dict[str, Any]]:
        """The response to one request: ``(status, body)``.

        A request completed before in this run is answered at once, a row
        with ``cached: True``: nothing runs for it.  Otherwise the request
        joins the in-flight task of its key, or dispatches one.
        """
        key = task.request_key(self.config)
        done = self._completed.lookup(key)
        if done is not None:
            self.metrics.count("memo_replays")
            status, body = done
            if "row" not in body:
                if status == 422 and task.path != "lint":
                    self.metrics.count("admission_rejects")
                return status, dict(body)
            if task.path == "compile":
                remember_inline(body["name"], task.source, body["entry"])
            return status, {**body, "row": {**body["row"], "cached": True}}
        leader, future = self.flight.admit(key)
        if leader:
            work = asyncio.wrap_future(self.backend.submit(self.runner, task))
            self._track(work)
            work.add_done_callback(functools.partial(self._finish, key, task))
        else:
            self.metrics.count("dedupe_hits")
        status, body = await asyncio.shield(future)
        return status, dict(body)

    def _track(self, future: asyncio.Future) -> None:
        self._pending.add(future)
        future.add_done_callback(self._pending.discard)

    def _finish(self, key: Tuple, task: ServeTask, work: asyncio.Future) -> None:
        """Loop-thread completion: record, count, answer the request."""
        try:
            result = work.result()
        except Exception as exc:  # the backend closed, or a defect
            self.flight.reject(key, exc)
            return
        if result.get("failed"):
            self.metrics.count("failed_rows")
            self.flight.resolve(key, (500, {"row": result}))
            return
        status, body = result["status"], result["body"]
        self._completed.get(key, lambda: (status, body))
        if "row" in body:
            if result.get("attempts"):
                body["row"]["attempts"] = result["attempts"]
            if task.path == "compile":
                remember_inline(body["name"], task.source, body["entry"])
            if body["row"].get("cached"):
                self.metrics.count("cache_replays")
            else:
                self.metrics.count("compile_executions")
                self._executions[key] = self._executions.pop(key, 0) + 1
                if len(self._executions) > EXECUTIONS_WINDOW:
                    self._executions.popitem(last=False)
        elif status == 422 and task.path != "lint":
            self.metrics.count("admission_rejects")
        self.flight.resolve(key, (status, body))
        self._prune()

    def _prune(self) -> None:
        """Prune the artifact cache, if due, on a thread of its own."""
        if self.cache is None or self.cache_max_bytes is None:
            return
        now = time.monotonic()
        if now - self._pruned_at >= PRUNE_INTERVAL:
            self._pruned_at = now
            loop = asyncio.get_running_loop()
            self._track(loop.run_in_executor(None, self.cache.prune, self.cache_max_bytes))

    # ------------------------------------------------------------- reports
    def cache_stats(self) -> Dict[str, Any]:
        """Cache counters + usage (the ``/cache/stats`` body); the counters
        include the loads of every pool worker that returned a row."""
        if self.cache is None:
            return {"cache": None}
        stats = self.cache.stats()
        usage = self.cache.usage()
        total = stats.get("hits", 0) + stats.get("misses", 0)
        return {
            "cache": str(self.cache.root),
            "stats": stats,
            "usage": usage,
            "hit_rate": (stats.get("hits", 0) / total) if total else None,
        }
