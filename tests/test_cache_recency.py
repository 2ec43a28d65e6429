"""Shared-cache recency and concurrency regressions.

Four historical bugs of :class:`~repro.benchsuite.cache.ArtifactCache`
under a long-running server:

* eviction was FIFO, not LRU — ``prune`` orders by mtime but loads never
  refreshed it, so a server's *hottest* entries (written first, read
  constantly) were evicted first;
* a writer crashing between ``mkstemp`` and ``os.replace`` stranded its
  ``.tmp-*`` staging file forever — invisible to ``usage()`` and never
  reclaimed;
* the hit/miss/corrupt counters were bare ``+=`` on ints — lost updates
  once concurrent requests share one instance — and ``/cache/stats``
  could only see the parent process's counters, not the worker fleet's;
* the fix for the last one had every pool worker write its counters to a
  file under ``<cache>/stats/`` that nothing removed, so the directory
  grew by a file per worker per sweep; workers now return their counter
  increments with each row.
"""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.benchsuite import (
    ArtifactCache,
    BenchmarkRunner,
    ParallelBackend,
    measure_tasks,
    parallel,
)
from repro.benchsuite.cache import POINT_FILE, TMP_PREFIX
from repro.config import TINY
from repro.faults import inject, parse_fault_plan

KEY_HOT = "aa" + "0" * 62
KEY_COLD = "bb" + "0" * 62
ROW = {"name": "length", "depth": 3, "optimization": "none", "t": 123}


def _entry_file(cache: ArtifactCache, key: str, name: str = POINT_FILE):
    return cache.root / key[:2] / key[2:] / name


def _set_mtime(path, when: float) -> None:
    os.utime(path, (when, when))


# ------------------------------------------------------------------ recency
def test_hit_refreshes_mtime(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY_HOT, ROW)
    path = _entry_file(cache, KEY_HOT)
    _set_mtime(path, time.time() - 3600)
    stale = path.stat().st_mtime
    assert cache.load_point(KEY_HOT) == ROW
    assert path.stat().st_mtime > stale


def test_prune_evicts_cold_not_hot(tmp_path):
    """The LRU regression: hot = written first but read since; cold =
    written later, never read.  FIFO eviction (the bug) would evict the
    hot entry; LRU must evict the cold one."""
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY_HOT, ROW)
    cache.store_point(KEY_COLD, dict(ROW, name="cold"))
    now = time.time()
    _set_mtime(_entry_file(cache, KEY_HOT), now - 7200)   # written long ago
    _set_mtime(_entry_file(cache, KEY_COLD), now - 3600)  # written later
    assert cache.load_point(KEY_HOT) == ROW  # ...but hot was just read
    report = cache.prune(max_bytes=_entry_file(cache, KEY_HOT).stat().st_size)
    assert report["removed_entries"] == 1
    assert cache.load_point(KEY_HOT) == ROW       # survived
    assert cache.load_point(KEY_COLD) is None     # evicted


def test_circuit_hits_also_refresh(tmp_path):
    from repro.circuit.circuit import Circuit
    from repro.circuit.gates import Gate, GateKind

    cache = ArtifactCache(tmp_path)
    circuit = Circuit(2, [Gate(GateKind.MCX, (0,), (1,))])
    cache.store_circuit(KEY_HOT, circuit)
    path = _entry_file(cache, KEY_HOT, "circuit.rqcs")
    _set_mtime(path, time.time() - 3600)
    stale = path.stat().st_mtime
    assert cache.load_circuit(KEY_HOT) is not None
    assert path.stat().st_mtime > stale


# ---------------------------------------------------------------- tmp sweep
def _strand_tmp(cache: ArtifactCache, key: str, age: float = 3600.0):
    """Plant a staging file as a crashed writer would leave it."""
    entry = cache.root / key[:2] / key[2:]
    entry.mkdir(parents=True, exist_ok=True)
    tmp = entry / f"{TMP_PREFIX}stranded"
    tmp.write_bytes(b"partial artifact")
    _set_mtime(tmp, time.time() - age)
    return tmp


def test_usage_counts_stranded_tmp_files_separately(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY_HOT, ROW)
    clean = cache.usage()
    assert clean["tmp_files"] == 0 and clean["tmp_bytes"] == 0
    _strand_tmp(cache, KEY_COLD)
    usage = cache.usage()
    assert usage["tmp_files"] == 1
    assert usage["tmp_bytes"] == len(b"partial artifact")
    # staging bytes are dead weight, never entry bytes
    assert usage["bytes"] == clean["bytes"]


def test_prune_sweeps_stale_tmp_and_empty_entry_dir(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY_HOT, ROW)
    tmp = _strand_tmp(cache, KEY_COLD)
    report = cache.prune(max_bytes=1 << 30)
    assert report["swept_tmp_files"] == 1
    assert not tmp.exists()
    # the stranded entry dir held nothing else: it must be gone too
    assert not tmp.parent.exists()
    assert not (cache.root / KEY_COLD[:2]).exists()
    assert cache.load_point(KEY_HOT) == ROW


def test_sweep_spares_young_tmp_files(tmp_path):
    """A live writer's in-progress staging file must never be yanked."""
    cache = ArtifactCache(tmp_path)
    tmp = _strand_tmp(cache, KEY_COLD, age=0.0)
    assert cache.sweep_tmp() == 0
    assert tmp.exists()
    assert cache.sweep_tmp(max_age=0.0) == 1  # unconditional (clear path)
    assert not tmp.exists()


def test_clear_sweeps_tmp_unconditionally(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY_HOT, ROW)
    tmp = _strand_tmp(cache, KEY_COLD, age=0.0)
    cache.clear()
    assert not tmp.exists()
    assert cache.usage() == {
        "entries": 0, "bytes": 0,
        "quarantine_entries": 0, "quarantine_bytes": 0,
        "tmp_files": 0, "tmp_bytes": 0,
    }


def test_interrupted_atomic_write_leaves_no_tmp_in_parent(tmp_path):
    """Parent-side exceptions in the staging window unlink the temp file
    (the stranding is specific to hard process death in workers)."""
    cache = ArtifactCache(tmp_path)

    class Boom(Exception):
        pass

    real_replace = os.replace

    def exploding_replace(src, dst):
        raise Boom()

    os.replace = exploding_replace
    try:
        try:
            cache.store_point(KEY_HOT, ROW)
        except Boom:
            pass
        else:  # pragma: no cover - the fault must surface
            raise AssertionError("store_point should have raised")
    finally:
        os.replace = real_replace
    assert cache.tmp_files() == []


# -------------------------------------------------------------- concurrency
def test_counters_are_thread_safe(tmp_path):
    """4 threads x 500 misses each, beside 2 threads adding 500 worker
    misses each: bare `+=` loses updates under the race; the locked
    counter must account for every one."""
    cache = ArtifactCache(tmp_path)
    threads = [
        threading.Thread(
            target=lambda: [
                cache.load_point("cc" + "0" * 62) for _ in range(500)
            ]
        )
        for _ in range(4)
    ] + [
        threading.Thread(
            target=lambda: [cache.add_counts({"misses": 1}) for _ in range(500)]
        )
        for _ in range(2)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.misses == 3000


def test_worker_counts_return_with_rows_and_write_no_files(tmp_path):
    """Six sweeps on one pool and one cache: the parent's counters include
    every worker's loads, and no per-worker stats file is left behind."""
    cache = ArtifactCache(tmp_path)
    runner = BenchmarkRunner(TINY, cache=cache)
    backend = ParallelBackend(jobs=2)
    try:
        for depth in range(1, 7):
            tasks = measure_tasks(["length", "length-simplified"], [depth])
            backend.run(runner, tasks)
    finally:
        backend.close()
    assert not (tmp_path / "stats").exists()
    # each of the 12 points: one replay probe, in the worker that
    # compiled it (the parent probes nothing)
    assert cache.stats()["misses"] == 12
    assert cache.stats()["hits"] == 0


def test_failed_attempt_loads_return_with_the_next_row(tmp_path, monkeypatch):
    """A task that fails after its replay probe keeps that miss in the
    worker's counters; the worker's next row brings it back."""
    runner = BenchmarkRunner(TINY, cache=ArtifactCache(tmp_path))
    monkeypatch.setattr(parallel, "_WORKER_RUNNER", runner)
    task = measure_tasks("length", [1])[0]
    inject.install(parse_fault_plan("flaky:cache.store_point:n=1"))
    try:
        with pytest.raises(OSError):
            parallel._run_worker_task(task)
        row, counts = parallel._run_worker_task(task)
    finally:
        inject.uninstall()
    assert row["name"] == "length"
    assert (counts["misses"], counts["hits"]) == (2, 0)  # both probes
    # the stored row replays, and only this call's load is counted
    _row, counts = parallel._run_worker_task(task)
    assert (counts["misses"], counts["hits"]) == (0, 1)


def test_take_counts_hands_over_increments(tmp_path):
    """A worker's counts leave once: taken counts reset, and adding them
    to another instance counts them there."""
    parent = ArtifactCache(tmp_path)
    worker = ArtifactCache(tmp_path)
    parent.store_point(KEY_HOT, ROW)
    assert worker.load_point(KEY_HOT) == ROW
    assert worker.load_point(KEY_COLD) is None
    parent.add_counts(worker.take_counts())
    assert worker.take_counts() == dict.fromkeys(
        ("hits", "misses", "corrupt", "io_errors", "quarantined"), 0
    )
    stats = parent.stats()
    assert (stats["hits"], stats["misses"], stats["entries"]) == (1, 1, 1)


def test_journal_dir_is_not_an_entry(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY_HOT, ROW)
    (tmp_path / "journal").mkdir()
    (tmp_path / "journal" / "serve.jsonl").write_text("{}\n")
    assert len(cache) == 1
    assert cache.usage()["entries"] == 1
    cache.prune(max_bytes=0)
    # pruning to zero removes entries but never the journal directory
    assert (tmp_path / "journal" / "serve.jsonl").exists()
    assert cache.usage()["entries"] == 0
