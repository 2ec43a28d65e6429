"""The compile service behind ``repro serve``: admission, dedupe, batching.

One :class:`CompileService` owns the machinery the CLI's batch sweeps
already use — a :class:`~repro.benchsuite.runner.BenchmarkRunner`, a
:class:`~repro.benchsuite.parallel.ParallelBackend`, the shared
:class:`~repro.benchsuite.cache.ArtifactCache` and a request
:class:`~repro.benchsuite.resilience.SweepJournal` — and fronts them
with service semantics:

* **admission** — request sources are linted first; error findings keep
  the work off the pool entirely (the handler turns them into 422).  The
  lint reads the runner's :class:`~repro.compiler.pipeline.Frontend`, so
  the parse, desugar and strict typecheck it does are the ones the
  compile reuses: one frontend pass per new program;
* **single-flight dedupe** — identical concurrent requests (same task
  fingerprint) share one future and compile exactly once;
* **micro-batching** — requests arriving within ``batch_window`` of each
  other run as one backend sweep, so the pool amortizes spawn cost and
  the two-wave cache discipline (presets before the baselines, such as
  ``none+peephole``, that resume from them) applies across requests, not
  just within one;
* **durability** — completed rows are journaled; a restarted server
  answers repeat requests from the journal without recompiling, and the
  journal header pins version + code fingerprint so stale state is
  discarded;
* **bounded cache** — with ``cache_max_bytes`` set, the shared artifact
  cache is pruned (LRU, stale temps swept) after every batch.

Threading model: all public coroutines run on the event loop; the
backend sweep runs on a single executor thread (one batch at a time),
which is also the only thread touching the journal.  Results hop back
to the loop via ``call_soon_threadsafe``.  The one structure both threads
use is the runner's frontend memo: the loop thread fills it while
linting, the executor thread reads it while compiling.  Its
:class:`~repro.bounded.BoundedCache` tables lock around lookup, insert
and evict, and both memos (and the runner's compiled-circuit memo) are
bounded, so a long run of distinct programs holds a fixed number of them.
With ``jobs >= 2`` the pool workers run their own frontend.
"""

from __future__ import annotations

import asyncio
import hashlib
from typing import Any, Dict, List, Optional, Tuple

from ..analysis import LintReport, lint_source
from ..bounded import BoundedCache
from ..config import CompilerConfig
from ..benchsuite.cache import ArtifactCache
from ..benchsuite.parallel import GridTask, ParallelBackend
from ..benchsuite.programs import get_entry, get_source, register_source
from ..benchsuite.resilience import RetryPolicy, SweepJournal, task_fingerprint
from ..benchsuite.runner import BenchmarkRunner
from .dedupe import SingleFlight
from .metrics import Metrics

#: micro-batch accumulation window: long enough that a burst of
#: concurrent clients lands in one sweep, short enough to be invisible
#: next to a compile
DEFAULT_BATCH_WINDOW = 0.02

#: admission-lint reports kept (least recently used evicted): serve
#: traffic of new programs would otherwise keep one report per request
LINT_CACHE_MAX = 1024


def inline_name(source: str, entry: str) -> str:
    """The content-derived benchmark name of an inline-source request."""
    digest = hashlib.sha256(f"{entry}\n{source}".encode("utf-8")).hexdigest()
    return f"src:{digest[:16]}"


class CompileService:
    """Admission-checked, deduplicated, batched grid execution."""

    def __init__(
        self,
        config: Optional[CompilerConfig] = None,
        cache: Optional[ArtifactCache] = None,
        jobs: int = 1,
        policy: Optional[RetryPolicy] = None,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        cache_max_bytes: Optional[int] = None,
        metrics: Optional[Metrics] = None,
    ) -> None:
        self.config = config or CompilerConfig()
        self.cache = cache
        self.cache_max_bytes = cache_max_bytes
        self.batch_window = batch_window
        self.metrics = metrics or Metrics()
        self.backend = ParallelBackend(jobs=jobs, policy=policy)
        self.runner = BenchmarkRunner(self.config, cache=cache)
        self.flight = SingleFlight()
        #: fingerprint -> completed row (journal replays + this run's rows)
        self._completed: Dict[str, Dict[str, Any]] = {}
        #: fingerprint -> times its task actually executed (the dedupe proof:
        #: the loadgen asserts every value here is exactly 1)
        self._executions: Dict[str, int] = {}
        self._lint_cache = BoundedCache(LINT_CACHE_MAX)
        self.journal: Optional[SweepJournal] = None
        if cache is not None:
            self.journal = SweepJournal.for_service(cache.root)
            self._completed.update(self.journal.load())
        self._queue: Optional[asyncio.Queue] = None
        self._consumer: Optional[asyncio.Task] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._register_gauges()

    # ----------------------------------------------------------- lifecycle
    async def start(self) -> None:
        if self._consumer is not None:
            return
        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._consumer = asyncio.create_task(self._consume())

    async def close(self) -> None:
        """Drain the queue, finish the in-flight batch, close the journal."""
        if self._consumer is not None:
            assert self._queue is not None
            await self._queue.put(None)
            await self._consumer
            self._consumer = None
        if self.journal is not None:
            self.journal.close()

    def _register_gauges(self) -> None:
        self.metrics.gauge(
            "queue_depth", lambda: self._queue.qsize() if self._queue else 0
        )
        self.metrics.gauge("inflight_keys", lambda: len(self.flight))
        self.metrics.gauge("distinct_keys", lambda: len(self._executions))
        self.metrics.gauge(
            "max_compiles_per_key",
            lambda: max(self._executions.values(), default=0),
        )
        self.metrics.gauge("completed_keys", lambda: len(self._completed))

    # ----------------------------------------------------------- admission
    def lint(
        self,
        source: str,
        entry: Optional[str] = None,
        size: Optional[int] = None,
    ) -> LintReport:
        """The (memoized, bounded) admission lint of one source/entry/size
        triple.  Its frontend work stays in the runner's memo for the
        compile; the report memo keys on a digest of the source, so an
        entry's cost does not grow with the source's size."""
        key = (entry, size, hashlib.sha256(source.encode("utf-8")).digest())
        return self._lint_cache.get(
            key,
            lambda: lint_source(
                source,
                entry=entry,
                size=size,
                config=self.config,
                frontend=self.runner.frontend,
            ),
        )

    def register_inline(self, source: str, entry: str) -> str:
        """Register an inline source under its content-derived name.

        The name flows through the standard registry, so grid tasks,
        cache keys and worker pools resolve it exactly like a static
        benchmark; the backend's ``extra_sources`` replays the
        registration inside every pool worker.
        """
        name = inline_name(source, entry)
        register_source(name, source, entry)
        self.backend.extra_sources[name] = (source, entry)
        return name

    @staticmethod
    def known_source(name: str) -> Optional[Tuple[str, str]]:
        """(source, entry) of a registered or generated benchmark name."""
        try:
            return get_source(name), get_entry(name)
        except (KeyError, ValueError):
            return None

    # ----------------------------------------------------------- execution
    async def submit(self, task: GridTask) -> Dict[str, Any]:
        """One grid point, deduplicated and journal-backed.

        Returns the measurement row (or a structured failure row —
        never raises for task failures).  A fingerprint already completed
        this run or journaled by a previous one is answered immediately
        with ``journal_resumed: True``.
        """
        if self._consumer is None:
            await self.start()
        fp = task_fingerprint(task, self.config)
        done = self._completed.get(fp)
        if done is not None:
            self.metrics.count("journal_replays")
            row = dict(done)
            row["journal_resumed"] = True
            return row
        leader, future = self.flight.admit(fp)
        if leader:
            assert self._queue is not None
            await self._queue.put((fp, task))
        else:
            self.metrics.count("dedupe_hits")
        row = await asyncio.shield(future)
        return dict(row)

    async def _consume(self) -> None:
        """The batch consumer: drain a window's requests, run one sweep."""
        assert self._queue is not None
        loop = asyncio.get_running_loop()
        closing = False
        while not closing:
            item = await self._queue.get()
            if item is None:
                break
            batch: List[Tuple[str, GridTask]] = [item]
            if self.batch_window > 0:
                await asyncio.sleep(self.batch_window)
            while True:
                try:
                    more = self._queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if more is None:
                    closing = True
                    break
                batch.append(more)
            self.metrics.count("batches")
            try:
                await loop.run_in_executor(None, self._run_batch, batch)
            except Exception as exc:  # backend defect: fail the whole batch
                for fp, _task in batch:
                    self.flight.reject(fp, exc)

    def _run_batch(self, batch: List[Tuple[str, GridTask]]) -> None:
        """Executor-thread body: one backend sweep over the batch.

        The cache's stats are published before the batch's last row is
        answered, so a client holding every answer finds no staging file
        of this batch still on disk.
        """
        fps = [fp for fp, _ in batch]
        tasks = [task for _, task in batch]
        unanswered = set(range(len(batch)))
        assert self._loop is not None

        def on_row(index: int, row: Dict[str, Any]) -> None:
            fp = fps[index]
            if self.journal is not None and not row.get("failed"):
                self.journal.append(fp, row)
            unanswered.discard(index)
            if not unanswered and self.cache is not None:
                self.cache.publish_stats()
            self._loop.call_soon_threadsafe(self._finish, fp, row)

        try:
            self.backend.run(self.runner, tasks, on_row=on_row)
        finally:
            if self.cache is not None:
                if unanswered:  # the sweep stopped before its last row
                    self.cache.publish_stats()
                if self.cache_max_bytes is not None:
                    self.cache.prune(self.cache_max_bytes)

    def _finish(self, fp: str, row: Dict[str, Any]) -> None:
        """Loop-thread completion: record, count, resolve the future."""
        if not row.get("failed"):
            self._completed[fp] = row
            if row.get("cached"):
                self.metrics.count("cache_replays")
            else:
                self.metrics.count("compile_executions")
                self._executions[fp] = self._executions.get(fp, 0) + 1
        else:
            self.metrics.count("failed_rows")
        self.flight.resolve(fp, row)

    # ------------------------------------------------------------- reports
    def cache_stats(self) -> Dict[str, Any]:
        """Fleet-wide cache counters + usage (the ``/cache/stats`` body)."""
        if self.cache is None:
            return {"cache": None}
        stats = self.cache.aggregated_stats()
        usage = self.cache.usage()
        total = stats.get("hits", 0) + stats.get("misses", 0)
        return {
            "cache": str(self.cache.root),
            "stats": stats,
            "usage": usage,
            "hit_rate": (stats.get("hits", 0) / total) if total else None,
        }
