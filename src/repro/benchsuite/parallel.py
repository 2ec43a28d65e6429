"""Parallel, cache-backed grid execution for the paper's evaluation sweeps.

The evaluation is a product grid — benchmark × depth × pipeline — whose
points are independent of each other.  A circuit-optimizer baseline is one
more pipeline, the preset with that gate pass appended (``none+peephole``,
``spire+toffoli-cancel``), so every point is one
:meth:`~repro.benchsuite.runner.BenchmarkRunner.measure` call.  This
module fans the grid across processes; the runner's own
:class:`~repro.benchsuite.cache.ArtifactCache`, when it has one, replays
warm points and shares artifacts between workers:

* :class:`GridTask` / :class:`GridResult` — the unit of work and the
  indexed result set (JSON-ready rows);
* :class:`SerialBackend` — in-process loop (the reference semantics);
* :class:`ParallelBackend` — ``jobs`` long-lived worker processes.  A
  task's *key* is its program, depth and compile prefix (``spire`` for
  ``spire+toffoli-cancel``), and every task of a key runs in one worker,
  so a baseline resumes from its preset in that worker's memo and a
  preset compiles once, with or without a cache.  Each worker returns
  its cache's counter increments with every row, so the runner's
  :meth:`~repro.benchsuite.cache.ArtifactCache.stats` counts them too.

Every backend produces **bit-identical measurement rows** for a given
grid: workers run the same deterministic compile/optimize pipeline, and
the cache replays stored rows verbatim (only the keys in
:data:`VOLATILE_ROW_KEYS` differ, by construction).
``tests/test_grid_harness.py`` asserts this against the recorded seed
T-counts.

**Fault tolerance.**  Backends constructed with a
:class:`~repro.benchsuite.resilience.RetryPolicy` isolate failures
instead of aborting the sweep: failing tasks are retried with backoff,
hung or crashed workers are restarted one by one, and past a death
budget the work runs serially in the parent (:class:`ParallelBackend`
has the details).  A task that exhausts its retries becomes a
structured *failure row* (:func:`~repro.benchsuite.resilience.failure_row`);
a task the scheduler loses raises instead of shrinking the row list.
Retries and rescheduling never change what a task computes.
"""

from __future__ import annotations

import os
import sys
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple, Union

from ..config import CompilerConfig
from ..faults import inject
from ..passes.pipeline import resolve_pipeline
from .cache import ArtifactCache
from .programs import TREE_BENCHMARKS, is_unsized
from .resilience import RetryPolicy, failure_row

#: progress callback: (done, total, row) -> None
ProgressFn = Callable[[int, int, Dict[str, Any]], None]

#: keys whose worker a :class:`ParallelBackend` remembers (least recently
#: used forgotten first; a key with work queued or running is kept).  A
#: paper grid has at most a few hundred keys, and a worker's compiled
#: memo holds 64 circuits, so a forgotten key has long left its worker's
#: memo too.
KEY_MAP_MAX = 1024


def task_key(
    program: str, depth: Optional[int], optimization: str
) -> Tuple[str, Optional[int], str]:
    """A task's key: its program, its depth (None for an unsized program)
    and its pipeline's compile prefix, so that a preset and every baseline
    that extends it share a key.  Raises for a bad pipeline spec."""
    prefix = resolve_pipeline(optimization).compile_prefix()
    return program, None if is_unsized(program) else depth, prefix.spec()


@dataclass(frozen=True)
class GridTask:
    """One point of the evaluation grid: a benchmark at a depth under a
    pipeline (a preset, ``preset+gatepass``, or a raw spec)."""

    name: str
    depth: Optional[int]
    optimization: str = "none"

    def label(self) -> str:
        depth = "" if self.depth is None else f"@{self.depth}"
        return f"{self.name}{depth} [{self.optimization}]"

    def key(self) -> Tuple[str, Optional[int], str]:
        return task_key(self.name, self.depth, self.optimization)

    def run(self, runner) -> Dict[str, Any]:
        """The task's measurement row on ``runner``."""
        return runner.measure(self.name, self.depth, self.optimization).row()


def measure_tasks(
    names: Union[str, Sequence[str]],
    depths: Sequence[Optional[int]],
    optimizations: Union[str, Sequence[str]] = "none",
) -> List[GridTask]:
    """The grid product ``names × depths × optimizations``."""
    if isinstance(names, str):
        names = [names]
    if isinstance(optimizations, str):
        optimizations = [optimizations]
    return [
        GridTask(name, None if is_unsized(name) else depth, optimization)
        for name in names
        for depth in depths
        for optimization in optimizations
    ]


#: row keys that legitimately differ between two runs of the same grid
#: (timings, cache provenance, retry counts) — everything else is
#: covered by the bit-identity contract that ``--check-against`` and the
#: loadgen serial baseline enforce
VOLATILE_ROW_KEYS = frozenset(
    [
        "wall_seconds",
        "compile_seconds",
        "timings",
        "cached",
        "prefix_cached",
        "attempts",
    ]
)


def stable_rows(rows: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Rows minus the volatile keys, for cross-run bit-identity checks."""
    return [
        {k: v for k, v in row.items() if k not in VOLATILE_ROW_KEYS}
        for row in rows
    ]


class GridResult:
    """Measurement rows of a grid sweep, indexed for table/figure assembly.

    ``rows`` holds every row the sweep produced, including structured
    *failure rows* (``failed: True``) for tasks that exhausted their
    retries; :meth:`ok` and :attr:`failed_rows` split the two, and the
    point indexers only ever serve successful measurements.
    """

    def __init__(self, rows: List[Dict[str, Any]]) -> None:
        self.rows = rows
        #: tasks that exhausted their retries (see ``failure_row``)
        self.failed_rows = [row for row in rows if row.get("failed")]
        self._measures: Dict[Tuple, Dict[str, Any]] = {
            (row["name"], row["depth"], row["optimization"]): row
            for row in rows
            if not row.get("failed")
        }

    def ok(self) -> List[Dict[str, Any]]:
        """The successful measurement rows (everything but failure rows)."""
        return [row for row in self.rows if not row.get("failed")]

    def measure(
        self, name: str, depth: Optional[int], optimization: str = "none"
    ) -> Dict[str, Any]:
        """The row of one (benchmark, depth, pipeline) point, the pipeline
        spelled as its task spelled it."""
        return self._measures[(name, None if is_unsized(name) else depth, optimization)]

    def series(
        self,
        name: str,
        depths: Sequence[int],
        metric: str = "t",
        optimization: str = "none",
    ) -> List[Any]:
        """One metric across a depth range (a figure series / table column)."""
        return [self.measure(name, d, optimization)[metric] for d in depths]

    def cached_fraction(self) -> float:
        """Share of rows that were replayed from the artifact cache."""
        if not self.rows:
            return 0.0
        return sum(bool(r.get("cached")) for r in self.rows) / len(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)


def execute_task(runner, task, attempt: int = 0) -> Dict[str, Any]:
    """Run one task on a runner; returns its JSON-ready result.

    ``attempt`` is the retry counter of the resilience layer; it feeds
    the deterministic fault-injection hook (a chaos fault fired on
    attempt 0 draws a fresh decision on attempt 1) and never affects
    what the task computes.
    """
    inject.fire("worker.execute", key=task.label(), attempt=attempt)
    return task.run(runner)


def run_task_resilient(
    runner,
    task,
    policy: RetryPolicy,
    prior_attempts: int = 0,
    prior_failures: int = 0,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, Any]:
    """Execute one task under a retry policy; never raises for task errors.

    Returns the task's result (annotated with ``attempts`` when it took
    more than one), or a structured failure row once the retry budget is
    exhausted.  ``prior_attempts``/``prior_failures`` carry the task's
    history when execution migrates (a serial continuation in the parent
    after worker deaths), so fault-injection attempt numbers and the
    retry budget stay monotone.
    """
    attempts = prior_attempts
    failures = prior_failures
    while True:
        attempts += 1
        try:
            row = execute_task(runner, task, attempt=attempts - 1)
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            failures += 1
            if failures > policy.retries:
                return failure_row(task, exc, stage="execute", attempts=attempts)
            sleep(policy.backoff_delay(task.label(), failures))
        else:
            if attempts > 1:
                row = dict(row)
                row["attempts"] = attempts
            return row


# ------------------------------------------------------------------ backends
class ExecutionBackend:
    """How a grid of tasks is turned into measurement rows."""

    name = "abstract"

    def close(self) -> None:
        """Release what the backend holds between sweeps (nothing here)."""

    def run(
        self,
        runner,
        tasks: List[GridTask],
        progress: Optional[ProgressFn] = None,
    ) -> List[Dict[str, Any]]:  # pragma: no cover - interface
        raise NotImplementedError


class _SweepState:
    """Shared bookkeeping of one sweep: rows, counters, abort threshold."""

    def __init__(
        self,
        tasks: List[GridTask],
        policy: Optional[RetryPolicy],
        progress: Optional[ProgressFn],
    ) -> None:
        self.tasks = tasks
        self.limit = policy.max_failures if policy is not None else None
        self.progress = progress
        self.rows: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
        self.done = 0
        self.failures = 0
        self.aborted = False

    def complete(self, index: int, row: Dict[str, Any]) -> None:
        self.rows[index] = row
        self.done += 1
        if row.get("failed"):
            self.failures += 1
            if self.limit is not None and self.failures > self.limit:
                self.aborted = True  # stop scheduling work
        if self.progress is not None:
            self.progress(self.done, len(self.tasks), row)


class SerialBackend(ExecutionBackend):
    """In-process loop; the reference semantics every backend must match.

    Without a policy (the default), task exceptions propagate — the
    historical contract every library caller relies on.  With a
    :class:`RetryPolicy`, tasks are retried and exhausted tasks become
    failure rows, and the sweep stops early once ``max_failures`` is
    exceeded.
    """

    name = "serial"

    def __init__(self, policy: Optional[RetryPolicy] = None) -> None:
        self.policy = policy

    def run(self, runner, tasks, progress=None):
        state = _SweepState(list(tasks), self.policy, progress)
        for index, task in enumerate(state.tasks):
            if self.policy is None:
                state.complete(index, execute_task(runner, task))
            else:
                state.complete(index, run_task_resilient(runner, task, self.policy))
            if state.aborted:
                break
        return state.rows[: state.done]


@dataclass(eq=False)
class _Attempt:
    """One submitted task while the backend holds it."""

    seq: int
    task: Any
    key: Tuple
    runner: Any
    future: Future
    taken: bool = False  # the future was set running
    starts: int = 0  # the fault-injection attempt number
    failures: int = 0  # charged to the retry budget; a worker death is not
    ready_at: float = 0.0  # earliest next start (monotonic), set by backoff
    deadline: Optional[float] = None


def _terminate(worker: Optional[ProcessPoolExecutor]) -> None:
    """Tear a worker down hard: kill its process (hung or not), drop work,
    and wait for the executor's manager thread to see the death and exit.

    A manager thread left running past the teardown races the
    interpreter's exit hook, which wakes it through a pipe the thread may
    be closing (``Exception ignored ... Bad file descriptor``).  SIGKILL,
    which no inherited handler can swallow, keeps the wait short.
    """
    if worker is None:
        return
    for proc in list((getattr(worker, "_processes", None) or {}).values()):
        try:
            proc.kill()
        except Exception:
            pass
    try:
        worker.shutdown(wait=True, cancel_futures=True)
    except Exception:
        pass


class ParallelBackend(ExecutionBackend):
    """``jobs`` long-lived worker processes, each owning the keys it started.

    Each worker is a one-process :class:`ProcessPoolExecutor` with one
    long-lived :class:`BenchmarkRunner`, whose memos (parsed programs,
    compiled circuits, decompositions) carry over from task to task.  A
    worker starts with its first task (inheriting a fault plan installed
    after the backend was built), bound to the runner's config and cache
    root; a task for another pair, submitted while no work is held,
    restarts them.  A scheduler thread gives each worker one task at a
    time: an idle worker takes the oldest ready task of a key
    (``task.key()``) it owns or no worker owns, so no worker idles while
    an unstarted key has work, and a key's tasks run in its owner in
    submission order.  The key map keeps :data:`KEY_MAP_MAX` keys.  With
    ``jobs == 1``, :meth:`run` is a :class:`SerialBackend` sweep and
    :meth:`submit` runs tasks on one thread with the caller's runner.

    Failing tasks are retried per the policy.  A task past its deadline
    restarts its own worker (and is charged a failure), and a worker that
    died, under a task or idle, is respawned alone (its task rescheduled
    free); the tasks it owns wait for the new process.  After more than
    ``policy.max_pool_deaths`` worker deaths before the backend next runs
    out of work, the tasks it holds run serially in the parent.
    :meth:`close` stops it all.
    """

    name = "parallel"

    def __init__(
        self,
        jobs: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.policy = policy or RetryPolicy()
        #: workers started so far: ``jobs`` once each has run a task
        self.worker_starts = 0
        # shared with the submitting threads, under the lock
        self._lock = threading.Lock()
        self._inbox: List[_Attempt] = []
        self._doorbell: Future = Future()
        self._scheduler: Optional[threading.Thread] = None
        self._closing = False
        self._outstanding = 0
        self._seq = 0
        #: (config, cache root) the workers run for
        self._binding: Optional[Tuple[CompilerConfig, Optional[str]]] = None
        self._rebind = False
        #: the one task thread of ``jobs == 1``
        self._thread: Optional[ThreadPoolExecutor] = None
        # the scheduler thread's own
        self._workers: List[Optional[ProcessPoolExecutor]] = [None] * self.jobs
        self._queues: Dict[Tuple, Deque[_Attempt]] = {}
        self._owner: "OrderedDict[Tuple, int]" = OrderedDict()
        self._running: Dict[Future, Tuple[int, _Attempt]] = {}
        self._deaths = 0
        self._degraded = False

    def submit(self, runner, task) -> Future:
        """Hand one task over; the future resolves to ``task.run``'s result
        on some worker's runner (a :class:`GridTask`'s row), or to a
        failure row once its retries are spent."""
        if self.jobs == 1:
            with self._lock:
                if self._thread is None:
                    self._thread = ThreadPoolExecutor(1, "repro-task")
                    self.worker_starts += 1
            return self._thread.submit(run_task_resilient, runner, task, self.policy)
        cache = runner.cache
        binding = (runner.config, str(cache.root) if cache is not None else None)
        attempt = _Attempt(0, task, task.key(), runner, Future())
        with self._lock:
            if binding != self._binding:
                if self._outstanding:
                    raise RuntimeError("the backend is busy with another runner's tasks")
                self._binding, self._rebind = binding, True
            self._seq += 1
            attempt.seq = self._seq
            self._outstanding += 1
            self._inbox.append(attempt)
            self._ring()
            if self._scheduler is None:
                self._scheduler = threading.Thread(
                    target=self._schedule, name="repro-scheduler", daemon=True
                )
                self._scheduler.start()
        return attempt.future

    def run(self, runner, tasks, progress=None):
        if self.jobs == 1:
            return SerialBackend(self.policy).run(runner, tasks, progress)
        state = _SweepState(list(tasks), self.policy, progress)
        futures = {self.submit(runner, task): i for i, task in enumerate(state.tasks)}
        try:
            for future in as_completed(futures):
                state.complete(futures[future], future.result())
                if state.aborted:
                    break
        finally:
            for future in futures:
                future.cancel()  # what an abort left unstarted
        return [row for row in state.rows if row is not None]

    def worker_pids(self) -> List[Optional[int]]:
        """The process id of each worker (None: not running)."""
        return [next(iter(getattr(w, "_processes", None) or {}), None) for w in self._workers]

    def close(self) -> None:
        """Stop the scheduler and the workers (idempotent); a task still
        held fails."""
        with self._lock:
            self._closing = True
            self._ring()
            scheduler = self._scheduler
        if scheduler is not None:
            scheduler.join()
        with self._lock:
            self._closing = False
        if self._thread is not None:
            self._thread.shutdown(wait=True, cancel_futures=True)
            self._thread = None

    # ------------------------------------------------------------ scheduler
    def _ring(self) -> None:
        """Wake the scheduler (under the lock)."""
        if not self._doorbell.done():
            self._doorbell.set_result(None)

    def _schedule(self) -> None:
        """The scheduler thread: start tasks, take their results in."""
        error: Optional[BaseException] = None
        try:
            while True:
                with self._lock:
                    if self._closing:
                        break
                    inbox, self._inbox = self._inbox, []
                    rebind, self._rebind = self._rebind, False
                    if self._doorbell.done():
                        self._doorbell = Future()
                    doorbell = self._doorbell
                if rebind:
                    self._stop_workers()
                for attempt in inbox:
                    self._queues.setdefault(attempt.key, deque()).append(attempt)
                if not self._queues and not self._running:
                    self._deaths, self._degraded = 0, False  # out of work
                if not self._degraded:
                    self._dispatch()  # a worker that died here may degrade
                if self._degraded:
                    self._run_in_parent()
                else:
                    self._reap(doorbell)
        except BaseException as exc:  # a scheduler defect
            error = exc
        self._release(error)

    def _dispatch(self) -> None:
        """Start a task on every idle worker that has one: the oldest ready
        task of a key the worker owns or no worker owns."""
        now = time.monotonic()
        busy = {slot for slot, _ in self._running.values()}
        for slot in range(self.jobs):
            while slot not in busy and not self._degraded:
                ready = [
                    queue[0] for key, queue in self._queues.items()
                    if queue[0].ready_at <= now and self._owner.get(key, slot) == slot
                ]
                if not ready:
                    break
                if self._start(slot, min(ready, key=lambda a: a.seq), now):
                    busy.add(slot)

    def _take(self, attempt: _Attempt) -> bool:
        """Unqueue a task about to start; False if it was cancelled first."""
        queue = self._queues[attempt.key]
        queue.popleft()
        if not queue:
            del self._queues[attempt.key]
        if attempt.taken:
            return True
        attempt.taken = True
        if not attempt.future.set_running_or_notify_cancel():
            self._settle()
            return False
        return True

    def _start(self, slot: int, attempt: _Attempt, now: float) -> bool:
        """Send a task to worker ``slot`` (started if it is not running);
        False if the task did not start."""
        if not self._take(attempt):
            return False
        self._owner[attempt.key] = slot
        self._owner.move_to_end(attempt.key)
        if self._workers[slot] is None:
            config, cache_root = self._binding
            self._workers[slot] = ProcessPoolExecutor(
                max_workers=1,
                initializer=_init_worker,
                initargs=(asdict(config), cache_root, list(sys.path)),
            )
            self.worker_starts += 1
        attempt.starts += 1
        try:
            future = self._workers[slot].submit(
                _run_worker_task, attempt.task, attempt.starts - 1
            )
        except BrokenProcessPool:
            attempt.starts -= 1
            self._requeue(attempt)
            self._worker_died(slot)
            return False
        timeout = self.policy.task_timeout
        attempt.deadline = now + timeout if timeout else None
        self._running[future] = (slot, attempt)
        excess = len(self._owner) - KEY_MAP_MAX
        if excess > 0:  # forget the least recently used idle keys
            held = set(self._queues) | {a.key for _, a in self._running.values()}
            for key in [key for key in self._owner if key not in held][:excess]:
                del self._owner[key]
        return True

    def _reap(self, doorbell: Future) -> None:
        """Wait for a result, a submission, a deadline or the end of a
        backoff; take in what finished and restart what is overdue."""
        now = time.monotonic()
        wakeups = [a.deadline for _, a in self._running.values() if a.deadline]
        wakeups += [q[0].ready_at for q in self._queues.values() if q[0].ready_at > now]
        if self._queues and not self._running and not wakeups:
            raise RuntimeError("it holds tasks that no worker takes")
        timeout = max(0.0, min(wakeups) - now) if wakeups else None
        finished, _ = wait(
            [doorbell, *self._running], timeout=timeout, return_when=FIRST_COMPLETED
        )
        for future in finished:
            if future in self._running:
                self._finish(future)
        now = time.monotonic()
        for future, (slot, attempt) in list(self._running.items()):
            if future in self._running and attempt.deadline and now >= attempt.deadline:
                # a hung task cannot be cancelled: restart its worker and
                # charge the task, whose retries bound this, not the death
                # budget (in the parent no deadline would hold)
                del self._running[future]
                timeout = self.policy.task_timeout
                self._charge(attempt, TimeoutError(f"task exceeded --task-timeout={timeout}s"))
                _terminate(self._workers[slot])
                self._workers[slot] = None

    def _finish(self, future: Future) -> None:
        """Take in the result of a task that came back from its worker."""
        slot, attempt = self._running.pop(future)
        try:
            result, counts = future.result()
        except BrokenProcessPool:
            # the worker died (crash, OOM-kill): the attempt number
            # advanced, so an injected crash draws a fresh decision next time
            self._requeue(attempt)
            self._worker_died(slot)
        except Exception as exc:
            self._charge(attempt, exc)
        else:
            if counts:
                attempt.runner.cache.add_counts(counts)
            if attempt.starts > 1 or attempt.failures:
                result = dict(result)
                result["attempts"] = attempt.starts
            attempt.future.set_result(result)
            self._settle()

    def _charge(self, attempt: _Attempt, error: BaseException) -> None:
        """Count a failure: retry after a backoff, or give up with a row."""
        attempt.failures += 1
        if attempt.failures > self.policy.retries:
            attempt.future.set_result(
                failure_row(attempt.task, error, "execute", attempt.starts)
            )
            self._settle()
        else:
            attempt.ready_at = time.monotonic() + self.policy.backoff_delay(
                attempt.task.label(), attempt.failures
            )
            self._requeue(attempt)

    def _requeue(self, attempt: _Attempt) -> None:
        self._queues.setdefault(attempt.key, deque()).appendleft(attempt)

    def _settle(self) -> None:
        """One submitted task is resolved (or was cancelled)."""
        with self._lock:
            self._outstanding -= 1

    def _worker_died(self, slot: int) -> None:
        """Drop worker ``slot``; past the death budget, run in the parent."""
        _terminate(self._workers[slot])
        self._workers[slot] = None
        self._deaths += 1
        if self._deaths > self.policy.max_pool_deaths:
            self._degraded = True
            for _, attempt in self._running.values():
                self._requeue(attempt)
            self._running.clear()
            self._stop_workers()

    def _run_in_parent(self) -> None:
        """Run the oldest held task in this thread, under the same policy
        and with the task's attempt history."""
        attempt = min((queue[0] for queue in self._queues.values()), key=lambda a: a.seq)
        if self._take(attempt):
            attempt.future.set_result(
                run_task_resilient(
                    attempt.runner,
                    attempt.task,
                    self.policy,
                    prior_attempts=attempt.starts,
                    prior_failures=attempt.failures,
                )
            )
            self._settle()

    def _stop_workers(self) -> None:
        for slot, worker in enumerate(self._workers):
            _terminate(worker)
            self._workers[slot] = None
        self._owner.clear()

    def _release(self, error: Optional[BaseException]) -> None:
        """The scheduler stops: end the workers, fail every task held."""
        self._stop_workers()
        held = [a for queue in self._queues.values() for a in queue]
        held += [attempt for _, attempt in self._running.values()]
        self._queues.clear()
        self._running.clear()
        with self._lock:
            held += self._inbox
            self._inbox = []
            self._scheduler = None
            self._outstanding -= len(held)
        reason = "the backend closed"
        if error is not None:
            reason = f"the scheduler failed ({error!r}); this is a harness bug, not a task failure"
        for attempt in held:
            if not attempt.future.done():
                attempt.future.set_exception(
                    RuntimeError(f"{reason}: task {attempt.task.label()} lost")
                )


#: worker-process state: one runner per (process, config)
_WORKER_RUNNER = None


def _init_worker(
    config_kwargs: Dict[str, Any],
    cache_root: Optional[str],
    parent_path: List[str],
) -> None:
    """Build the worker's long-lived runner (start methods: fork or spawn)."""
    import signal

    # A forked worker inherits the parent's signal disposition — under
    # ``repro serve`` that includes asyncio's wakeup-fd handler, whose
    # pipe is shared with the parent after fork.  Left in place, the
    # SIGTERM of a routine worker restart would be written into the
    # parent's wakeup pipe and trigger the *server's* shutdown handler
    # (and the worker itself would never die, since the handler eats the
    # signal).  Workers take the default dispositions instead.
    try:
        signal.set_wakeup_fd(-1)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            signal.signal(signum, signal.SIG_DFL)
        except (ValueError, OSError):  # pragma: no cover
            pass
    for entry in reversed(parent_path):
        if entry not in sys.path:
            sys.path.insert(0, entry)
    from .runner import BenchmarkRunner  # after sys.path fix-up

    global _WORKER_RUNNER
    inject.mark_worker()
    inject.fire("pool.spawn", key=str(os.getpid()))
    cache = ArtifactCache(cache_root) if cache_root else None
    _WORKER_RUNNER = BenchmarkRunner(CompilerConfig(**config_kwargs), cache=cache)


def _run_worker_task(task, attempt: int = 0) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """The task's result and the worker cache's counter increments since
    this worker's previous result: a failed attempt's loads come back
    with the next one, and the parent adds them to its own cache's
    counters.  A ``repro serve`` task runs its admission lint here, on
    this worker's frontend memo, before its measure."""
    result = execute_task(_WORKER_RUNNER, task, attempt=attempt)
    cache = _WORKER_RUNNER.cache
    return result, cache.take_counts() if cache is not None else {}


# --------------------------------------------------------------- paper grids
#: list/queue/string benchmarks of Table 1 (linear MCX-complexity)
LINEAR_BENCHMARKS = [
    "length",
    "length-simplified",
    "sum",
    "find_pos",
    "remove",
    "push_back",
    "is_prefix",
    "num_matching",
    "compare",
]

#: the circuit-optimizer baselines swept by Figures 12/15/24
BASELINE_OPTIMIZERS = ["peephole", "rotation-merge", "toffoli-cancel", "zx-like"]


def fuzz_tasks(
    seed: int = 0,
    count: int = 24,
    optimizations: Union[str, Sequence[str]] = ("none", "spire"),
    baselines: Sequence[str] = (),
    max_depth: Optional[int] = None,
    flags: str = "",
) -> List[GridTask]:
    """A grid of generated fuzz workloads (see :mod:`repro.fuzz`).

    Each task's name is ``fuzz:<seed>:<index>[:<depth>][:<flags>]``, which
    encodes the program deterministically: every worker process and
    artifact cache synthesizes the identical source from the name alone.
    ``flags`` selects workload families (``h`` = superposition via
    Hadamard statements, ``s`` = well-formed heap shapes with recursive
    traversals).  ``baselines`` are pipelines measured after every
    ``optimizations`` task, such as ``none+peephole``.  Generated programs
    run through exactly the same measure machinery as the Table 1
    benchmarks, giving the evaluation a second, shape-diverse workload
    family.
    """
    from ..fuzz.generator import fuzz_name  # lazy: avoid import cycle

    names = [fuzz_name(seed, index, max_depth, flags) for index in range(count)]
    return measure_tasks(names, [None], optimizations) + measure_tasks(
        names, [None], list(baselines)
    )


def paper_grid(
    selector: str,
    depths: Sequence[int],
    tree_depths: Optional[Sequence[int]] = None,
) -> List[GridTask]:
    """The task grid behind one table/figure of the evaluation.

    Selectors: ``fig2``, ``fig15``, ``fig24``, ``table1``, ``table2``,
    ``smoke`` (a minutes-scale end-to-end slice used by CI), ``fuzz``.
    A circuit-optimizer baseline is spelled ``preset+optimizer``, and
    every grid lists a preset's measure before the baselines that resume
    from its circuit.
    """
    if not depths:
        raise ValueError("paper_grid needs a non-empty depth range")
    tree_depths = list(tree_depths if tree_depths is not None else depths)
    last = max(depths)
    if selector == "fig2":
        return measure_tasks("length", depths)
    if selector == "fig15":
        return (
            measure_tasks(
                "length-simplified", depths, ["none", "narrow", "flatten", "spire"]
            )
            + measure_tasks("length-simplified", depths, "spire+toffoli-cancel")
            + measure_tasks(
                "length-simplified",
                depths,
                [f"none+{optimizer}" for optimizer in BASELINE_OPTIMIZERS],
            )
        )
    if selector == "fig24":
        opts = ["none", "narrow", "flatten", "spire"]
        return measure_tasks("length-simplified", [last], opts) + measure_tasks(
            "length-simplified",
            [last],
            [
                f"{opt}+{optimizer}"
                for opt in opts
                for optimizer in ("toffoli-cancel", "zx-like")
            ],
        )
    if selector == "table1":
        return (
            measure_tasks(LINEAR_BENCHMARKS, depths, ["none", "spire"])
            + measure_tasks(TREE_BENCHMARKS, tree_depths, ["none", "spire"])
            + measure_tasks("pop_front", [None], ["none", "spire"])
        )
    if selector == "table2":
        programs = ["length-simplified", "length"]
        return measure_tasks(programs, [last], ["none", "spire"]) + measure_tasks(
            programs,
            [last],
            [
                f"{opt}+{optimizer}"
                for opt in ("none", "spire")
                for optimizer in ("toffoli-cancel", "zx-like")
            ],
        )
    if selector == "smoke":
        names = ["length", "length-simplified"]
        small = sorted(depths)[:2]
        return measure_tasks(names, small, ["none", "spire"]) + measure_tasks(
            "length-simplified", small, ["none+peephole", "none+toffoli-cancel"]
        )
    if selector == "fuzz":
        # basis-state programs plus the superposition and heap-shape
        # families of the same seed stream (smaller counts: their circuits
        # are larger and the families multiply the grid)
        return (
            fuzz_tasks(baselines=["none+peephole", "none+toffoli-cancel"])
            + fuzz_tasks(count=8, flags="h")
            + fuzz_tasks(count=6, flags="s")
            + fuzz_tasks(count=4, flags="hs")
        )
    raise ValueError(
        f"unknown grid selector {selector!r}; "
        "available: fig2, fig15, fig24, table1, table2, smoke, fuzz"
    )


GRID_SELECTORS = ["fig2", "fig15", "fig24", "table1", "table2", "smoke", "fuzz"]
