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
* :class:`ParallelBackend` — a :class:`~concurrent.futures.ProcessPoolExecutor`
  fan-out with per-worker runner state and shared on-disk artifacts.
  The backend keeps one pool for its lifetime, so every sweep after the
  first runs on workers whose memos are warm; :meth:`ParallelBackend.close`
  terminates it.  Each worker returns its cache's counter increments with
  every row, and the sweep adds them to the runner's cache, so
  :meth:`~repro.benchsuite.cache.ArtifactCache.stats` counts the
  workers' loads too.

Every backend produces **bit-identical measurement rows** for a given
grid: workers run the same deterministic compile/optimize pipeline, and
the cache replays stored rows verbatim (only the keys in
:data:`VOLATILE_ROW_KEYS` differ, by construction).
``tests/test_grid_harness.py`` asserts this against the recorded seed
T-counts.

**Fault tolerance.**  Backends constructed with a
:class:`~repro.benchsuite.resilience.RetryPolicy` isolate failures
instead of aborting the sweep: a task that raises is retried with
exponential backoff and deterministic jitter, a task that exceeds the
per-task timeout gets its worker pool torn down and is rescheduled, a
``BrokenProcessPool`` (worker crash, OOM-kill) respawns the pool and
requeues everything in flight, and after ``max_pool_deaths`` the sweep
degrades to serial in-parent execution for the remaining tasks.  A task
that exhausts its retry budget becomes a structured *failure row*
(:func:`~repro.benchsuite.resilience.failure_row`) in the result; lost
tasks — a slot still empty after a non-aborted sweep — raise instead of
silently shrinking the row list.  The bit-identity contract holds under
any of this: retries and rescheduling never change what a task computes.
"""

from __future__ import annotations

import os
import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..config import CompilerConfig
from ..faults import inject
from ..passes.pipeline import resolve_pipeline
from .cache import ArtifactCache
from .programs import TREE_BENCHMARKS, is_unsized, registered, runtime_program
from .resilience import RetryPolicy, failure_row

#: progress callback: (done, total, row) -> None
ProgressFn = Callable[[int, int, Dict[str, Any]], None]

#: per-completed-row callback: (task index, row) -> None; fired as each
#: row lands (in completion order), the checkpoint-journal hook
RowFn = Callable[[int, Dict[str, Any]], None]


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
#: (timings, cache/journal provenance, retry counts) — everything else is
#: covered by the bit-identity contract that ``--check-against`` and the
#: loadgen serial baseline enforce
VOLATILE_ROW_KEYS = frozenset(
    [
        "wall_seconds",
        "compile_seconds",
        "timings",
        "cached",
        "prefix_cached",
        "journal_resumed",
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


def execute_task(runner, task: GridTask, attempt: int = 0) -> Dict[str, Any]:
    """Run one grid task on a runner; returns the JSON-ready row.

    ``attempt`` is the retry counter of the resilience layer; it feeds
    the deterministic fault-injection hook (a chaos fault fired on
    attempt 0 draws a fresh decision on attempt 1) and never affects
    what the task computes.
    """
    inject.fire("worker.execute", key=task.label(), attempt=attempt)
    return runner.measure(task.name, task.depth, task.optimization).row()


def run_task_resilient(
    runner,
    task: GridTask,
    policy: RetryPolicy,
    prior_attempts: int = 0,
    prior_failures: int = 0,
    sleep: Callable[[float], None] = time.sleep,
) -> Dict[str, Any]:
    """Execute one task under a retry policy; never raises for task errors.

    Returns the measurement row (annotated with ``attempts`` when it
    took more than one), or a structured failure row once the retry
    budget is exhausted.  ``prior_attempts``/``prior_failures`` carry
    the task's history when execution migrates (e.g. a degraded-serial
    continuation after pool deaths), so fault-injection attempt numbers
    and the retry budget stay monotone.
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
        on_row: Optional[RowFn] = None,
    ) -> List[Dict[str, Any]]:  # pragma: no cover - interface
        raise NotImplementedError


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

    def run(self, runner, tasks, progress=None, on_row=None):
        rows: List[Dict[str, Any]] = []
        failures = 0
        for i, task in enumerate(tasks):
            if self.policy is None:
                row = execute_task(runner, task)
            else:
                row = run_task_resilient(runner, task, self.policy)
            rows.append(row)
            if on_row is not None:
                on_row(i, row)
            if progress is not None:
                progress(i + 1, len(tasks), row)
            if row.get("failed"):
                failures += 1
                limit = self.policy.max_failures if self.policy else None
                if limit is not None and failures > limit:
                    break  # abort threshold crossed: stop scheduling work
        return rows


@dataclass
class _Attempt:
    """Per-task retry state while a wave is in flight."""

    index: int
    task: GridTask
    #: total submissions (the fault-injection attempt number)
    starts: int = 0
    #: failures attributable to the task (counts against the retry budget);
    #: pool deaths reschedule without charging it
    failures: int = 0
    #: earliest next submission (monotonic clock), set by backoff
    ready_at: float = 0.0


class _SweepState:
    """Shared bookkeeping of one sweep: rows, counters, abort threshold."""

    def __init__(
        self,
        tasks: List[GridTask],
        policy: RetryPolicy,
        progress: Optional[ProgressFn],
        on_row: Optional[RowFn],
    ) -> None:
        self.tasks = tasks
        self.policy = policy
        self.progress = progress
        self.on_row = on_row
        self.rows: List[Optional[Dict[str, Any]]] = [None] * len(tasks)
        self.done = 0
        self.failures = 0
        self.aborted = False

    def complete(self, index: int, row: Dict[str, Any]) -> None:
        self.rows[index] = row
        self.done += 1
        if row.get("failed"):
            self.failures += 1
            limit = self.policy.max_failures
            if limit is not None and self.failures > limit:
                self.aborted = True
        if self.on_row is not None:
            self.on_row(index, row)
        if self.progress is not None:
            self.progress(self.done, len(self.tasks), row)


def _terminate_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: kill workers (hung ones included), drop work."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except Exception:
            pass
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:
        pass


class ParallelBackend(ExecutionBackend):
    """Fan the grid across a :class:`ProcessPoolExecutor`.

    The backend keeps one pool for its lifetime.  The first wave that
    submits work starts it (so the workers inherit a fault plan installed
    after the backend was built), bound to the runner's config and cache
    root; a wave for another pair closes it and starts another.  Each
    worker process holds one long-lived :class:`BenchmarkRunner`, so
    per-process memoization (parsed programs, compiled circuits, the
    shared decomposition cache) carries over from task to task and from
    sweep to sweep.  When the runner has an artifact cache, the workers
    share it through the same cache directory: a warm point replays in
    the worker that draws it, and the grid runs in two waves, pipelines
    without gate passes (which store their compiled circuits) before the
    ones with gate passes (which resume from them), so a grid point's
    compile happens in exactly one worker.  With ``jobs == 1`` the sweep
    is a :class:`SerialBackend` one.

    A task for a program that
    :func:`~repro.benchsuite.programs.register_source` added at run time
    (``repro serve``'s inline sources) carries its ``(source, entry)``,
    and the worker registers it for that task only.

    Rows come back in task order regardless of completion order.  A
    failing task is retried per the policy; a crashed or hung worker
    takes its pool down and the sweep respawns and reschedules; after
    ``policy.max_pool_deaths`` pool deaths in one wave, the wave's
    remaining tasks execute serially in the parent, and the next wave
    starts a new pool.  Every scheduled task ends as either a measurement
    row or a failure row — a sweep that somehow lost a task raises rather
    than returning a shorter result.  One sweep at a time uses a backend;
    :meth:`close` terminates its pool.
    """

    name = "parallel"

    def __init__(
        self,
        jobs: Optional[int] = None,
        policy: Optional[RetryPolicy] = None,
    ) -> None:
        self.jobs = max(1, jobs if jobs is not None else (os.cpu_count() or 1))
        self.policy = policy or RetryPolicy()
        #: pools started so far: 1 while the first pool lives
        self.spawns = 0
        self._pool: Optional[ProcessPoolExecutor] = None
        #: (config fields, cache root) the live pool's workers were built for
        self._binding: Optional[Tuple[Dict[str, Any], Optional[str]]] = None

    def close(self) -> None:
        """Terminate the worker pool, if one is running (idempotent)."""
        if self._pool is not None:
            _terminate_pool(self._pool)
            self._pool = None
            self._binding = None

    def _live_pool(
        self, binding: Tuple[Dict[str, Any], Optional[str]]
    ) -> ProcessPoolExecutor:
        """The running pool, started for ``binding`` when there is none."""
        if self._pool is None:
            config_kwargs, cache_root = binding
            self._pool = ProcessPoolExecutor(
                max_workers=self.jobs,
                initializer=_init_worker,
                initargs=(config_kwargs, cache_root, list(sys.path)),
            )
            self._binding = binding
            self.spawns += 1
        return self._pool

    def run(self, runner, tasks, progress=None, on_row=None):
        if self.jobs == 1:
            return SerialBackend(policy=self.policy).run(
                runner, tasks, progress=progress, on_row=on_row
            )
        state = _SweepState(list(tasks), self.policy, progress, on_row)
        pending: List[Tuple[int, GridTask]] = list(enumerate(tasks))
        waves = [pending]
        if runner.cache is not None:
            # With a shared cache, dispatch in two waves: pipelines without
            # gate passes first (each stores its compiled circuit), then
            # the ones with gate passes (each resumes from that circuit).
            # One queue would hand a baseline to a free worker while its
            # preset still compiles in another, and the baseline would
            # compile the preset again.
            gated = {
                i for i, task in pending
                if resolve_pipeline(task.optimization).gate_passes
            }
            waves = [
                [(i, task) for i, task in pending if i not in gated],
                [(i, task) for i, task in pending if i in gated],
            ]
        for wave in waves:
            if wave and not state.aborted:
                self._run_wave(runner, wave, state)
        if not state.aborted:
            lost = [
                state.tasks[i].label()
                for i, row in enumerate(state.rows)
                if row is None
            ]
            if lost:
                raise RuntimeError(
                    f"grid sweep lost {len(lost)} task(s) without a row "
                    f"(first: {lost[:3]}); this is a harness bug, not a "
                    "task failure"
                )
        return [row for row in state.rows if row is not None]

    # ------------------------------------------------------------ wave loop
    def _run_wave(
        self,
        runner,
        wave: List[Tuple[int, GridTask]],
        state: _SweepState,
    ) -> None:
        binding = (
            asdict(runner.config),
            str(runner.cache.root) if runner.cache is not None else None,
        )
        if binding != self._binding:
            self.close()  # its workers were built for another runner
        policy = self.policy
        queue: List[_Attempt] = [_Attempt(i, task) for i, task in wave]
        in_flight: Dict[Any, Tuple[_Attempt, Optional[float]]] = {}
        pool_deaths = 0
        degraded = False

        def recover_pool(extra: Optional[List[_Attempt]] = None) -> bool:
            """Requeue in-flight work and tear the pool down (the next
            submission starts a new one); False once the death budget is
            spent (caller degrades to serial)."""
            nonlocal pool_deaths
            pool_deaths += 1
            for attempt, _ in in_flight.values():
                queue.append(attempt)
            in_flight.clear()
            if extra:
                queue.extend(extra)
            self.close()
            return pool_deaths <= policy.max_pool_deaths

        try:
            while (queue or in_flight) and not state.aborted and not degraded:
                now = time.monotonic()
                # fill free slots with backoff-ready tasks
                while queue and len(in_flight) < self.jobs:
                    ready = [a for a in queue if a.ready_at <= now]
                    if not ready:
                        break
                    attempt = ready[0]
                    queue.remove(attempt)
                    attempt.starts += 1
                    try:
                        future = self._live_pool(binding).submit(
                            _run_worker_task,
                            attempt.task,
                            attempt.starts - 1,
                            runtime_program(attempt.task.name),
                        )
                    except BrokenProcessPool:
                        attempt.starts -= 1
                        queue.append(attempt)
                        if not recover_pool():
                            degraded = True
                        break
                    deadline = (
                        now + policy.task_timeout if policy.task_timeout else None
                    )
                    in_flight[future] = (attempt, deadline)
                if degraded or state.aborted:
                    break
                if not in_flight:
                    if queue:  # everything is backing off: sleep to soonest
                        pause = min(a.ready_at for a in queue) - time.monotonic()
                        if pause > 0:
                            time.sleep(pause)
                    continue
                timeout = None
                wakeups = [d for _, d in in_flight.values() if d is not None]
                if queue and len(in_flight) < self.jobs:
                    wakeups.append(min(a.ready_at for a in queue))
                if wakeups:
                    timeout = max(0.0, min(wakeups) - time.monotonic())
                finished, _ = wait(
                    set(in_flight), timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not finished:
                    # nothing completed before the timeout: reap tasks past
                    # their deadline.  A hung worker cannot be cancelled
                    # individually, so the pool is torn down and respawned;
                    # the timed-out task is charged a failure, innocent
                    # bystanders are rescheduled for free.
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (_, deadline) in in_flight.items()
                        if deadline is not None and now >= deadline
                    ]
                    if not expired:
                        continue  # woke up to submit backoff-ready work
                    retry: List[_Attempt] = []
                    for future in expired:
                        attempt, _ = in_flight.pop(future)
                        attempt.failures += 1
                        if attempt.failures > policy.retries:
                            error = TimeoutError(
                                f"task exceeded --task-timeout="
                                f"{policy.task_timeout}s"
                            )
                            state.complete(
                                attempt.index,
                                failure_row(
                                    attempt.task, error, "execute", attempt.starts
                                ),
                            )
                        else:
                            attempt.ready_at = now + policy.backoff_delay(
                                attempt.task.label(), attempt.failures
                            )
                            retry.append(attempt)
                    if not recover_pool(retry):
                        degraded = True
                    continue
                broken = False
                for future in finished:
                    attempt, _ = in_flight.pop(future)
                    try:
                        row, counts = future.result()
                    except BrokenProcessPool:
                        # worker died (crash, OOM-kill): reschedule; the
                        # attempt number advanced, so an injected crash
                        # draws a fresh decision next time
                        queue.append(attempt)
                        broken = True
                    except KeyboardInterrupt:
                        raise
                    except Exception as exc:
                        attempt.failures += 1
                        if attempt.failures > policy.retries:
                            state.complete(
                                attempt.index,
                                failure_row(
                                    attempt.task, exc, "execute", attempt.starts
                                ),
                            )
                        else:
                            attempt.ready_at = (
                                time.monotonic()
                                + policy.backoff_delay(
                                    attempt.task.label(), attempt.failures
                                )
                            )
                            queue.append(attempt)
                    else:
                        if counts:
                            runner.cache.add_counts(counts)
                        if attempt.starts > 1 or attempt.failures:
                            row = dict(row)
                            row["attempts"] = attempt.starts
                        state.complete(attempt.index, row)
                if broken and not state.aborted:
                    if not recover_pool():
                        degraded = True
        finally:
            if in_flight:
                # an aborted or interrupted wave: its tasks must not keep
                # running into the next sweep
                self.close()
        if degraded and not state.aborted:
            # repeated pool deaths: finish the wave serially in the parent,
            # under the same policy and with the task's attempt history
            leftovers = sorted(
                queue + [attempt for attempt, _ in in_flight.values()],
                key=lambda a: a.index,
            )
            for attempt in leftovers:
                if state.aborted:
                    break
                row = run_task_resilient(
                    runner,
                    attempt.task,
                    policy,
                    prior_attempts=attempt.starts,
                    prior_failures=attempt.failures,
                )
                state.complete(attempt.index, row)


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
    # SIGTERM of a routine pool teardown would be written into the
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


def _run_worker_task(
    task: GridTask,
    attempt: int = 0,
    program: Optional[Tuple[str, str]] = None,
) -> Tuple[Dict[str, Any], Dict[str, int]]:
    """The task's row and the worker cache's counter increments since
    this worker's previous row: a failed attempt's loads come back with
    the next row, and the parent adds them to its own cache's counters.

    ``program`` is the ``(source, entry)`` of a name registered at run
    time, ``None`` for a built-in or fuzz name.  The worker binds it for
    this task only, so a long-lived worker's registry does not grow with
    the programs it has served."""
    with registered(task.name, program):
        row = execute_task(_WORKER_RUNNER, task, attempt=attempt)
    cache = _WORKER_RUNNER.cache
    return row, cache.take_counts() if cache is not None else {}


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
