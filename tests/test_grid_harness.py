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
from repro.benchsuite.parallel import GridTask, stable_rows
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
    """With a shared cache, a baseline runs after its preset's compile has
    been stored, even with a pool slot free beside it, so the preset
    compiles in exactly one worker."""
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
    """The pool outlives its sweeps: a cold and a warm sweep of one
    runner share it, and a runner with another cache gets a new one."""
    tasks = measure_tasks("length", [2], ["none", "none+peephole"])
    runner = BenchmarkRunner(CONFIG, cache=ArtifactCache(tmp_path / "a"), backend=pool)
    cold = runner.run_grid(tasks)
    warm = runner.run_grid(tasks)
    assert pool.spawns == 1
    assert cold.cached_fraction() == 0.0 and warm.cached_fraction() == 1.0
    other = BenchmarkRunner(CONFIG, cache=ArtifactCache(tmp_path / "b"), backend=pool)
    moved = other.run_grid(tasks)
    assert pool.spawns == 2
    serial = BenchmarkRunner(CONFIG).run_grid(tasks)
    for grid in (cold, warm, moved):
        assert stable_rows(grid.rows) == stable_rows(serial.rows)
    pool.close()
    pool.close()  # idempotent
    assert pool.spawns == 2


def test_worker_task_binds_its_inline_program_for_the_task_only(
    tmp_path, monkeypatch
):
    """A task for an inline program carries its (source, entry): the
    worker measures the row a serial runner does, and its registry holds
    the name only while the task runs."""
    source = programs.get_source("length") + "\n// an inline program\n"
    name = inline_name(source, "length")
    task = GridTask(name, 2, "none+peephole")
    monkeypatch.setattr(
        parallel,
        "_WORKER_RUNNER",
        BenchmarkRunner(CONFIG, cache=ArtifactCache(tmp_path)),
    )
    row, _counts = parallel._run_worker_task(task, 0, (source, "length"))
    assert name not in programs.SOURCES and name not in programs.ENTRIES
    monkeypatch.setitem(programs.SOURCES, name, source)
    monkeypatch.setitem(programs.ENTRIES, name, "length")
    serial = BenchmarkRunner(CONFIG).measure(name, 2, "none+peephole").row()
    assert stable_rows([row]) == stable_rows([serial])
    # the parent sends a program only for a name registered at run time
    assert programs.runtime_program(name) == (source, "length")
    assert programs.runtime_program("length") is None
    # a name the process had bound before the task stays bound after it
    replayed, _counts = parallel._run_worker_task(task, 0, (source, "length"))
    assert replayed["cached"] and programs.SOURCES[name] == source


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
