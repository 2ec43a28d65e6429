"""Chaos tests: injected faults must never change what a sweep computes.

The safety net of the fault-injection harness: a grid executed under any
fault plan — worker crashes, hung tasks, torn cache writes, flaky I/O —
produces measurement rows bit-identical to a clean serial run, and an
interrupted sweep, run again on the same artifact cache, replays what it
stored and measures only the rest.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.benchsuite import (
    ArtifactCache,
    BenchmarkRunner,
    ParallelBackend,
    RetryPolicy,
    SerialBackend,
    measure_tasks,
)
from repro.config import CompilerConfig
from repro.faults import inject, parse_fault_plan
from repro.faults.plan import _decision

TINY = CompilerConfig(word_width=3, addr_width=3, heap_cells=5)

#: a small grid of presets and the optimizer baselines that resume from them
GRID = measure_tasks("length", [2, 3]) + measure_tasks(
    "length-simplified", [2], ["none+peephole", "none+toffoli-cancel"]
)

#: row keys that may legitimately differ between backends / fault runs
VOLATILE = ("compile_seconds", "wall_seconds", "cached", "timings",
            "prefix_cached", "attempts")


def stable(rows):
    return [
        {k: v for k, v in row.items() if k not in VOLATILE} for row in rows
    ]


@pytest.fixture(autouse=True)
def _no_fault_leak():
    yield
    inject.uninstall()


@pytest.fixture(scope="module")
def clean_rows():
    return stable(BenchmarkRunner(TINY).run_grid(GRID).rows)


def chaos_run(plan_text, seed, tmp_path, jobs=2, **policy_kwargs):
    inject.install(parse_fault_plan(plan_text, seed=seed))
    policy = RetryPolicy(backoff_base=0.001, seed=seed, **policy_kwargs)
    backend = ParallelBackend(jobs=jobs, policy=policy)
    try:
        return BenchmarkRunner(
            TINY, cache=ArtifactCache(tmp_path), backend=backend
        ).run_grid(GRID)
    finally:
        backend.close()
        inject.uninstall()


# -------------------------------------------------------------- bit-identity
@pytest.mark.slow
def test_crash_faults_rows_bit_identical(tmp_path, clean_rows):
    result = chaos_run("crash:worker.execute:p=0.4:a=2", 42, tmp_path)
    assert not result.failed_rows
    assert stable(result.rows) == clean_rows


@pytest.mark.slow
def test_torn_cache_writes_rows_bit_identical(tmp_path, clean_rows):
    result = chaos_run(
        "corrupt:cache.store_point:p=0.5,corrupt:cache.store_circuit:p=0.5",
        7,
        tmp_path,
    )
    assert not result.failed_rows
    assert stable(result.rows) == clean_rows
    # and a warm second sweep over the damaged cache still matches: corrupt
    # entries are quarantined and recomputed, never served
    cache = ArtifactCache(tmp_path)
    warm = BenchmarkRunner(
        TINY, cache=cache, backend=SerialBackend(RetryPolicy())
    ).run_grid(GRID)
    assert not warm.failed_rows
    assert stable(warm.rows) == clean_rows


@pytest.mark.slow
def test_flaky_cache_reads_rows_bit_identical(tmp_path, clean_rows):
    result = chaos_run(
        "flaky:cache.load_point:p=0.3,flaky:cache.load_circuit:p=0.3",
        3,
        tmp_path,
        jobs=1,  # serial path: exercises the runner's own cache reads
    )
    assert not result.failed_rows
    assert stable(result.rows) == clean_rows


@pytest.mark.slow
def test_hang_faults_timeout_and_retry(tmp_path, clean_rows):
    result = chaos_run(
        "hang:worker.execute:p=0.6:a=1:s=30",
        11,
        tmp_path,
        task_timeout=2.0,
    )
    assert not result.failed_rows
    assert stable(result.rows) == clean_rows


@pytest.mark.slow
def test_repeated_pool_deaths_degrade_to_serial(tmp_path, clean_rows):
    # every spawned worker dies in its initializer: the pool can never do
    # work, and after max_pool_deaths the sweep must finish in-parent
    result = chaos_run(
        "crash:pool.spawn:p=1.0", 0, tmp_path, max_pool_deaths=2
    )
    assert not result.failed_rows
    assert stable(result.rows) == clean_rows


def test_degraded_sweep_leaves_no_worker_and_the_next_starts_one():
    """A sweep that finishes serially keeps no dead worker around; the
    next sweep starts a new one, with its own death budget."""
    inject.install(parse_fault_plan("crash:pool.spawn:p=1.0", seed=0))
    policy = RetryPolicy(backoff_base=0.001, max_pool_deaths=0)
    backend = ParallelBackend(jobs=2, policy=policy)
    runner = BenchmarkRunner(TINY)
    tasks = measure_tasks("length", [2])
    try:
        first = backend.run(runner, tasks)
        assert (backend.worker_starts, backend.worker_pids()) == (1, [None, None])
        second = backend.run(runner, tasks)
        assert (backend.worker_starts, backend.worker_pids()) == (2, [None, None])
    finally:
        backend.close()
    assert stable(first) == stable(second) == stable(
        BenchmarkRunner(TINY).run_grid(tasks).rows
    )


@pytest.mark.parametrize("kind", ["hang", "crash"])
def test_a_hung_or_crashed_worker_restarts_alone(kind):
    """A task past its deadline, or a worker that dies under its task,
    restarts only that worker: the other keeps its process, and the rows
    match a clean run.  The plan's seed is chosen so that exactly one task
    of the second sweep fires, on its first attempt."""
    first = measure_tasks(["length", "length-simplified"], [2])
    second = measure_tasks(["length", "length-simplified"], [3])
    fires = [False, False, True, False]
    seed = next(
        seed
        for seed in range(1000)
        if [
            _decision(seed, kind, "worker.execute", task.label(), 0) < 0.5
            for task in first + second
        ]
        == fires
    )
    inject.install(parse_fault_plan(f"{kind}:worker.execute:p=0.5:a=1", seed=seed))
    policy = RetryPolicy(
        backoff_base=0.001, task_timeout=2.0 if kind == "hang" else None
    )
    backend = ParallelBackend(jobs=2, policy=policy)
    runner = BenchmarkRunner(TINY)
    try:
        rows = backend.run(runner, first)
        before = backend.worker_pids()
        rows += backend.run(runner, second)
        after = backend.worker_pids()
    finally:
        backend.close()
        inject.uninstall()
    assert None not in before and None not in after
    assert len(set(before) & set(after)) == 1
    assert backend.worker_starts == 3
    assert stable(rows) == stable(BenchmarkRunner(TINY).run_grid(first + second).rows)


@pytest.mark.parametrize("max_pool_deaths", [3, 0])
def test_a_worker_killed_while_idle_is_replaced(max_pool_deaths):
    """A worker killed between tasks (an OOM-kill, say) is respawned alone
    within the death budget, and past it the next sweep runs in the
    parent; either way its rows match a clean run."""
    tasks = measure_tasks(["length", "length-simplified"], [2])
    policy = RetryPolicy(backoff_base=0.001, max_pool_deaths=max_pool_deaths)
    backend = ParallelBackend(jobs=2, policy=policy)
    runner = BenchmarkRunner(TINY)
    try:
        rows = backend.run(runner, tasks)
        killed, kept = backend.worker_pids()
        os.kill(killed, signal.SIGKILL)
        deadline = time.monotonic() + 30
        while True:  # until the worker's executor has seen it die and reaped it
            try:
                os.kill(killed, 0)
            except ProcessLookupError:
                break
            assert time.monotonic() < deadline, "the killed worker was never reaped"
            time.sleep(0.01)
        rows += backend.run(runner, tasks)
        after = backend.worker_pids()
    finally:
        backend.close()
    if max_pool_deaths:
        assert after[1] == kept and after[0] not in (None, killed)
        assert backend.worker_starts == 3
    else:
        assert after == [None, None]
    assert stable(rows) == stable(BenchmarkRunner(TINY).run_grid(tasks + tasks).rows)


def _manager_threads():
    from concurrent.futures.process import _ExecutorManagerThread

    return {
        t for t in threading.enumerate()
        if isinstance(t, _ExecutorManagerThread) and t.is_alive()
    }


@pytest.mark.parametrize("restart", [False, True], ids=["close", "hang-restart"])
def test_worker_teardown_waits_for_the_manager_thread(monkeypatch, restart):
    """Tearing a worker down, on ``close()`` or when a task passes
    ``--task-timeout``, returns only once its executor's manager thread
    has exited.  A thread left running races the interpreter's exit hook,
    which wakes it through a pipe the thread may be closing and prints
    ``Exception ignored ... OSError: [Errno 9] Bad file descriptor``."""
    from repro.benchsuite import parallel

    tasks = measure_tasks(["length", "length-simplified"], [2])
    policy = RetryPolicy(backoff_base=0.001)
    if restart:
        # a seed on which exactly the first task hangs, on its first attempt
        seed = next(
            seed for seed in range(1000)
            if [_decision(seed, "hang", "worker.execute", task.label(), 0) < 0.5
                for task in tasks] == [True, False]
        )
        inject.install(parse_fault_plan("hang:worker.execute:p=0.5:a=1:s=60", seed=seed))
        policy = RetryPolicy(backoff_base=0.001, task_timeout=2.0)
    alive_after_teardown = []
    terminate = parallel._terminate

    def watched(worker):
        thread = getattr(worker, "_executor_manager_thread", None)
        terminate(worker)
        if thread is not None:
            alive_after_teardown.append(thread.is_alive())

    monkeypatch.setattr(parallel, "_terminate", watched)
    before = _manager_threads()
    backend = ParallelBackend(jobs=2, policy=policy)
    try:
        rows = backend.run(BenchmarkRunner(TINY), tasks)
        restarts = len(alive_after_teardown)
    finally:
        backend.close()
        inject.uninstall()
    assert restarts == (1 if restart else 0)
    assert alive_after_teardown and not any(alive_after_teardown)
    assert not _manager_threads() - before
    assert stable(rows) == stable(BenchmarkRunner(TINY).run_grid(tasks).rows)


# ------------------------------------------------- stranded staging files
@pytest.mark.slow
def test_worker_crash_mid_store_strands_then_sweeps_tmp(tmp_path):
    """A worker dying between ``mkstemp`` and ``os.replace`` (the
    ``cache.store_point`` chaos window) strands its ``.tmp-*`` staging
    file: ``os._exit`` skips the unlink that covers parent-side failures.
    The sweep must still finish with correct rows, ``usage()`` must
    account for the dead bytes, and the sweep path must reclaim them.

    The plan is fully deterministic: ``p=1.0`` crashes every worker that
    reaches the window (``n=1`` caps it at once per process), so the
    sweep degrades pool → pool → serial; the parent's own fire raises
    (and cleans up) instead of exiting, and its retry lands the row.
    """
    tasks = measure_tasks("length", [2])
    inject.install(parse_fault_plan("crash:cache.store_point:p=1.0:n=1", seed=0))
    try:
        policy = RetryPolicy(
            retries=4, backoff_base=0.001, max_pool_deaths=2, seed=0
        )
        cache = ArtifactCache(tmp_path)
        backend = ParallelBackend(jobs=2, policy=policy)
        result = BenchmarkRunner(TINY, cache=cache, backend=backend).run_grid(tasks)
    finally:
        backend.close()
        inject.uninstall()
    assert not result.failed_rows
    assert stable(result.rows) == stable(
        BenchmarkRunner(TINY).run_grid(tasks).rows
    )

    # the two worker deaths each stranded one temp file
    usage = cache.usage()
    assert usage["tmp_files"] >= 1
    assert usage["tmp_bytes"] > 0
    assert cache.sweep_tmp(max_age=0.0) == usage["tmp_files"]
    after = cache.usage()
    assert after["tmp_files"] == 0 and after["tmp_bytes"] == 0

    # the swept cache still serves a warm, bit-identical run
    warm = BenchmarkRunner(
        TINY, cache=cache, backend=SerialBackend(RetryPolicy())
    ).run_grid(tasks)
    assert not warm.failed_rows
    assert stable(warm.rows) == stable(result.rows)


# ------------------------------------------------------------ failure rows
def test_exhausted_task_becomes_failure_row_not_abort(tmp_path):
    # worker.execute crashes on every attempt for every key: each task
    # burns its whole retry budget and lands as a failure row
    inject.install(parse_fault_plan("crash:worker.execute:p=1.0", seed=0))
    tasks = measure_tasks("length", [2, 3])
    policy = RetryPolicy(retries=1, backoff_base=0.0)
    result = BenchmarkRunner(
        TINY, backend=SerialBackend(policy)
    ).run_grid(tasks)
    assert len(result.failed_rows) == 2
    assert all(r["error_kind"] == "crash" for r in result.failed_rows)
    assert all(r["attempts"] == 2 for r in result.failed_rows)


def test_max_failures_aborts_sweep(tmp_path):
    inject.install(parse_fault_plan("crash:worker.execute:p=1.0", seed=0))
    tasks = measure_tasks("length", [2, 3, 4, 5])
    policy = RetryPolicy(retries=0, max_failures=1, backoff_base=0.0)
    result = BenchmarkRunner(
        TINY, backend=SerialBackend(policy)
    ).run_grid(tasks)
    assert len(result.rows) == 2  # aborted right after the second failure


# ----------------------------------------------------------- lost-row guard
def test_lost_rows_raise_instead_of_shrinking(monkeypatch, tmp_path):
    """A scheduler that holds tasks no worker takes fails them, and the
    sweep raises instead of waiting forever or returning fewer rows."""
    backend = ParallelBackend(jobs=2, policy=RetryPolicy())
    monkeypatch.setattr(ParallelBackend, "_dispatch", lambda self: None)
    try:
        with pytest.raises(RuntimeError, match="lost"):
            backend.run(BenchmarkRunner(TINY), measure_tasks("length", [2]))
    finally:
        backend.close()


# ------------------------------------------------------- interrupt + resume
@pytest.mark.parametrize("jobs", [1, 2])
def test_interrupted_sweep_resumes_from_the_cache(tmp_path, jobs):
    """A sweep interrupted by Ctrl-C after 2 of its 4 tasks has stored
    their rows; run again on the same cache, it replays them and measures
    only the 2 missing points.  The last two tasks hang (the plan's seed
    is chosen so that it fires on exactly those), so at ``jobs`` 2 neither
    can store a row before the interrupt ends the sweep."""
    tasks = measure_tasks("length", [2, 3, 4, 5])
    seed = next(
        seed
        for seed in range(1000)
        if [
            _decision(seed, "hang", "worker.execute", task.label(), 0) < 0.5
            for task in tasks
        ]
        == [False, False, True, True]
    )

    def sweep(progress=None):
        policy = RetryPolicy()
        backend = ParallelBackend(jobs, policy) if jobs > 1 else SerialBackend(policy)
        try:
            return BenchmarkRunner(
                TINY, cache=ArtifactCache(tmp_path), backend=backend
            ).run_grid(tasks, progress=progress)
        finally:
            backend.close()

    def interrupt_after_two(done, total, row):
        if done == 2:
            raise KeyboardInterrupt

    inject.install(parse_fault_plan("hang:worker.execute:p=0.5:s=60", seed=seed))
    try:
        with pytest.raises(KeyboardInterrupt):
            sweep(interrupt_after_two)
    finally:
        inject.uninstall()
    assert len(ArtifactCache(tmp_path)) == 2

    result = sweep()
    assert [row["cached"] for row in result.rows] == [True, True, False, False]
    assert stable(result.rows) == stable(BenchmarkRunner(TINY).run_grid(tasks).rows)
