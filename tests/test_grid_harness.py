"""The parallel / cached grid paths are bit-identical to the serial path.

Acceptance gate for the evaluation harness: whatever backend executes a
grid point — in-process, replayed from the artifact cache, or in a worker
process — the measurement must match the recorded seed T-counts in
``tests/data/seed_tcounts.json`` exactly.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.benchsuite import (
    ArtifactCache,
    BenchmarkRunner,
    ParallelBackend,
    SerialBackend,
    measure_tasks,
    parallel,
    programs,
)
from repro.benchsuite.parallel import stable_rows
from repro.benchsuite.runner import default_depths
from repro.config import CompilerConfig
from repro.serve import inline_name

DATA = pathlib.Path(__file__).resolve().parent / "data" / "seed_tcounts.json"
SEED = json.loads(DATA.read_text())
CONFIG = CompilerConfig(**SEED["config"])

#: a fast slice of the seed grid (small circuits; every optimizer kind)
SAMPLE = [
    ("length", 2, "peephole"),
    ("length", 2, "rotation-merge"),
    ("length", 2, "toffoli-cancel"),
    ("length", 2, "zx-like"),
    ("length-simplified", 3, "peephole"),
    ("length-simplified", 3, "toffoli-cancel"),
    ("sum", 2, "rotation-merge"),
]

TASKS = measure_tasks("length", [2, 3]) + [
    task
    for name, depth, optimizer in SAMPLE
    for task in measure_tasks(name, [depth], f"none+{optimizer}")
]


def seed_count(name, depth, optimizer) -> int:
    return SEED["counts"][f"{name}|{depth}|{optimizer}"]


@pytest.fixture(scope="module")
def serial_rows():
    runner = BenchmarkRunner(CONFIG, backend=SerialBackend())
    return runner.run_grid(TASKS).rows


@pytest.fixture
def pool():
    backend = ParallelBackend(jobs=2)
    yield backend
    backend.close()


def test_serial_matches_seed(serial_rows):
    by_key = {(r["name"], r["depth"], r["optimization"]): r for r in serial_rows}
    for name, depth, optimizer in SAMPLE:
        assert by_key[(name, depth, f"none+{optimizer}")]["t"] == seed_count(
            name, depth, optimizer
        )


def test_cached_cold_and_warm_match_serial(tmp_path, serial_rows):
    cache = ArtifactCache(tmp_path)
    cold = BenchmarkRunner(CONFIG, cache=cache).run_grid(TASKS)
    assert cold.cached_fraction() == 0.0
    warm = BenchmarkRunner(CONFIG, cache=cache).run_grid(TASKS)
    assert warm.cached_fraction() == 1.0
    assert stable_rows(cold.rows) == stable_rows(serial_rows)
    assert stable_rows(warm.rows) == stable_rows(serial_rows)
    for a, b in zip(cold.rows, warm.rows):
        # a replay reports the cold run's stage timings, flagged as cached
        assert b["cached"] and not a["cached"]
        assert b["compile_seconds"] == a["compile_seconds"]
        assert b["timings"] == a["timings"]


def test_parallel_matches_serial(tmp_path, serial_rows, pool):
    grid = BenchmarkRunner(
        CONFIG, cache=ArtifactCache(tmp_path), backend=pool
    ).run_grid(TASKS)
    assert stable_rows(grid.rows) == stable_rows(serial_rows)
    for name, depth, optimizer in SAMPLE:
        row = grid.measure(name, depth, f"none+{optimizer}")
        assert row["t"] == seed_count(name, depth, optimizer)


def test_parallel_baselines_resume_from_their_preset(tmp_path, pool):
    """A baseline shares its preset's key, so it runs after the preset in
    the same worker, even with another worker free beside it, and
    resumes from the preset's circuit instead of compiling it again."""
    grid = BenchmarkRunner(
        CONFIG, cache=ArtifactCache(tmp_path), backend=pool
    ).run_grid(measure_tasks("length", [4], ["none", "none+peephole"]))
    assert grid.measure("length", 4)["prefix_cached"] == ""
    baseline = grid.measure("length", 4, "none+peephole")
    assert baseline["prefix_cached"] == "alloc,lower"


def test_parallel_without_cache_matches_serial(serial_rows, pool):
    grid = BenchmarkRunner(CONFIG, backend=pool).run_grid(TASKS)
    assert stable_rows(grid.rows) == stable_rows(serial_rows)


def test_one_pool_serves_every_sweep_of_its_runner(tmp_path, pool):
    """The workers outlive their sweeps: a cold and a warm sweep of one
    runner share them, and a runner with another cache gets new ones.
    The grid's two tasks share one key, so one worker runs both."""
    tasks = measure_tasks("length", [2], ["none", "none+peephole"])
    runner = BenchmarkRunner(CONFIG, cache=ArtifactCache(tmp_path / "a"), backend=pool)
    cold = runner.run_grid(tasks)
    warm = runner.run_grid(tasks)
    assert pool.worker_starts == 1
    assert cold.cached_fraction() == 0.0 and warm.cached_fraction() == 1.0
    other = BenchmarkRunner(CONFIG, cache=ArtifactCache(tmp_path / "b"), backend=pool)
    moved = other.run_grid(tasks)
    assert pool.worker_starts == 2
    serial = BenchmarkRunner(CONFIG).run_grid(tasks)
    for grid in (cold, warm, moved):
        assert stable_rows(grid.rows) == stable_rows(serial.rows)
    pool.close()
    pool.close()  # idempotent
    assert pool.worker_starts == 2 and pool.worker_pids() == [None, None]


@pytest.mark.slow
@pytest.mark.parametrize("cached", [False, True])
@pytest.mark.parametrize("jobs", [1, 2, 4])
def test_paper_grids_compile_each_preset_once(tmp_path, monkeypatch, jobs, cached):
    """fig15, table2 and fig24 at the paper's depths make 38 compiles at
    every ``--jobs``, with or without a cache: a baseline runs in the
    worker of its preset, and a later grid's preset goes to the worker
    that compiled it.  Workers count their compiles in one file."""
    import repro.benchsuite.runner as runner_mod

    log = tmp_path / "compiles.log"
    real_compile = runner_mod.compile_checked

    def counting_compile(checked, *args, **kwargs):
        with open(log, "a") as handle:
            handle.write(f"{checked.lowered.entry}\n")
        return real_compile(checked, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "compile_checked", counting_compile)
    backend = ParallelBackend(jobs=jobs) if jobs > 1 else SerialBackend()
    cache = ArtifactCache(tmp_path / "cache") if cached else None
    runner = BenchmarkRunner(CONFIG, cache=cache, backend=backend)
    try:
        for selector in ("fig15", "table2", "fig24"):
            grid = runner.run_grid(parallel.paper_grid(selector, default_depths()))
            assert not grid.failed_rows
    finally:
        backend.close()
    assert len(log.read_text().splitlines()) == 38


def test_tasks_submitted_from_many_threads_all_resolve():
    """Tasks handed over from four threads at once, to more workers than
    the machine has cores and with threads switching constantly, resolve
    to the serial rows, and the backend holds nothing afterwards."""
    import sys
    import threading

    tasks = measure_tasks(
        ["length", "length-simplified", "sum"], [1, 2], ["none", "none+peephole"]
    )
    backend = ParallelBackend(jobs=3)
    runner = BenchmarkRunner(CONFIG)
    futures = [None] * len(tasks)

    def submit(offset: int) -> None:
        for index in range(offset, len(tasks), 4):
            futures[index] = backend.submit(runner, tasks[index])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=submit, args=(k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not any(thread.is_alive() for thread in threads)
        rows = [future.result(timeout=120) for future in futures]
    finally:
        sys.setswitchinterval(interval)
        backend.close()
    serial = SerialBackend().run(BenchmarkRunner(CONFIG), tasks)
    assert stable_rows(rows) == stable_rows(serial)
    assert backend._outstanding == 0


def test_registered_binds_a_program_for_the_block_only(monkeypatch):
    """A worker binds an inline program for one task: the name resolves in
    the block and is gone after it, and a name bound before the block stays
    bound."""
    source = programs.get_source("length") + "\n// an inline program\n"
    name = inline_name(source, "length")
    with programs.registered(name, (source, "length")):
        assert (programs.get_source(name), programs.get_entry(name)) == (source, "length")
    assert name not in programs.SOURCES and name not in programs.ENTRIES
    monkeypatch.setitem(programs.SOURCES, name, source)
    monkeypatch.setitem(programs.ENTRIES, name, "length")
    with programs.registered(name, (source, "length")):
        pass
    assert programs.SOURCES[name] == source


def test_optimizer_baseline_on_rehydrated_circuit(tmp_path, monkeypatch):
    """A cold process with a warm disk cache must reproduce seed T-counts
    from the circuit snapshot alone (no recompilation)."""
    import repro.benchsuite.runner as runner_mod

    cache = ArtifactCache(tmp_path)
    BenchmarkRunner(CONFIG, cache=cache).measure("length", 2)  # stores the snapshot

    def _no_compile(*args, **kwargs):
        raise AssertionError("the baseline should resume from the snapshot")

    monkeypatch.setattr(runner_mod, "compile_checked", _no_compile)
    point = BenchmarkRunner(CONFIG, cache=cache).measure("length", 2, "none+peephole")
    assert point.prefix_cached == "alloc,lower" and not point.cached
    assert point.t == seed_count("length", 2, "peephole")


def test_unsized_benchmark_normalizes_depth(tmp_path):
    runner = BenchmarkRunner(CONFIG, cache=ArtifactCache(tmp_path))
    grid = runner.run_grid(measure_tasks("pop_front", [7]))
    assert grid.measure("pop_front", None)["depth"] is None
    assert grid.measure("pop_front", 7) is grid.measure("pop_front", None)
