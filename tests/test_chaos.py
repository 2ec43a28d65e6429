"""Chaos tests: injected faults must never change what a sweep computes.

The safety net of the fault-injection harness: a grid executed under any
fault plan — worker crashes, hung tasks, torn cache writes, flaky I/O —
produces measurement rows bit-identical to a clean serial run, and an
interrupted sweep resumes from its journal without re-executing anything
already checkpointed.
"""

from __future__ import annotations

import pytest

from repro.benchsuite import (
    ArtifactCache,
    BenchmarkRunner,
    CachedBackend,
    ParallelBackend,
    RetryPolicy,
    SerialBackend,
    SweepJournal,
    measure_tasks,
    optimizer_tasks,
)
from repro.config import CompilerConfig
from repro.faults import inject, parse_fault_plan

TINY = CompilerConfig(word_width=3, addr_width=3, heap_cells=5)

#: a small grid exercising both task kinds and the two-wave scheduler
GRID = measure_tasks("length", [2, 3]) + optimizer_tasks(
    "length-simplified", [2], ["peephole", "toffoli-cancel"]
)

#: row keys that may legitimately differ between backends / fault runs
VOLATILE = ("compile_seconds", "wall_seconds", "seconds", "cached", "timings",
            "prefix_cached", "journal_resumed", "attempts")


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
    try:
        policy = RetryPolicy(backoff_base=0.001, seed=seed, **policy_kwargs)
        backend = ParallelBackend(jobs=jobs, cache=ArtifactCache(tmp_path), policy=policy)
        return BenchmarkRunner(TINY, backend=backend).run_grid(GRID)
    finally:
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
        TINY, backend=CachedBackend(cache, SerialBackend(RetryPolicy()))
    ).run_grid(GRID)
    assert not warm.failed_rows
    assert stable(warm.rows) == clean_rows


@pytest.mark.slow
def test_flaky_cache_reads_rows_bit_identical(tmp_path, clean_rows):
    result = chaos_run(
        "flaky:cache.load_point:p=0.3,flaky:cache.load_circuit:p=0.3",
        3,
        tmp_path,
        jobs=1,  # serial+cached path: exercises the cached backend's reads
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
        backend = ParallelBackend(jobs=2, cache=cache, policy=policy)
        result = BenchmarkRunner(TINY, backend=backend).run_grid(tasks)
    finally:
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
        TINY, backend=CachedBackend(cache, SerialBackend(RetryPolicy()))
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
    backend = ParallelBackend(jobs=2, policy=RetryPolicy())
    monkeypatch.setattr(
        ParallelBackend, "_run_wave", lambda self, *a, **k: None
    )
    with pytest.raises(RuntimeError, match="lost"):
        backend.run(BenchmarkRunner(TINY), measure_tasks("length", [2]))


# ------------------------------------------------------- interrupt + resume
def test_interrupt_leaves_resumable_journal(tmp_path):
    tasks = measure_tasks("length", [2, 3, 4, 5])
    journal = SweepJournal.for_grid(tmp_path, "t", tasks, TINY)
    runner = BenchmarkRunner(TINY)
    real_measure = runner.measure
    calls = []

    def interrupting(name, depth, optimization="none"):
        if len(calls) == 2:
            raise KeyboardInterrupt
        calls.append((name, depth))
        return real_measure(name, depth, optimization)

    runner.measure = interrupting
    with pytest.raises(KeyboardInterrupt):
        runner.run_grid(tasks, journal=journal)
    # the two completed rows survived the interrupt
    journal = SweepJournal.for_grid(tmp_path, "t", tasks, TINY)
    assert len(journal.load()) == 2

    # resume: only the two un-journaled tasks execute
    resumed_calls = []
    resumer = BenchmarkRunner(TINY)
    real = resumer.measure

    def counting(name, depth, optimization="none"):
        resumed_calls.append((name, depth))
        return real(name, depth, optimization)

    resumer.measure = counting
    result = resumer.run_grid(tasks, journal=journal, resume=True)
    assert len(result.rows) == 4 and not result.failed_rows
    assert sorted(resumed_calls) == [("length", 4), ("length", 5)]
    assert sum(bool(r.get("journal_resumed")) for r in result.rows) == 2


def test_fully_journaled_sweep_never_compiles(tmp_path, monkeypatch):
    tasks = measure_tasks("length", [2, 3])
    journal = SweepJournal.for_grid(tmp_path, "t", tasks, TINY)
    BenchmarkRunner(TINY).run_grid(tasks, journal=journal)

    def forbidden(*args, **kwargs):
        raise AssertionError("resume recompiled a journaled point")

    monkeypatch.setattr("repro.benchsuite.runner.compile_checked", forbidden)
    result = BenchmarkRunner(TINY).run_grid(
        tasks,
        journal=SweepJournal.for_grid(tmp_path, "t", tasks, TINY),
        resume=True,
    )
    assert len(result.rows) == 2
    assert all(r.get("journal_resumed") for r in result.rows)
