"""Shared configuration for the experiment benchmarks.

Each ``bench_*.py`` module regenerates one table or figure of the paper's
evaluation through the shared grid runner (:mod:`repro.benchsuite.parallel`):
tasks fan out across ``REPRO_JOBS`` worker processes and every point is
persisted in an on-disk artifact cache, so the full paper depth ranges run
cold exactly once and replay in seconds afterwards.

Environment knobs:

* ``REPRO_JOBS`` — worker processes for grid fan-out (default: CPU count);
* ``REPRO_CACHE_DIR`` — artifact cache location (default:
  ``<repo>/.bench-cache``); delete it (or bump the package version) to
  force a cold re-run.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.benchsuite import (
    ArtifactCache,
    BenchmarkRunner,
    ParallelBackend,
    default_depths,
)
from repro.config import CompilerConfig

#: benchmark config: small words keep pure-Python circuits tractable
CONFIG = CompilerConfig(word_width=3, addr_width=3, heap_cells=6)

#: depth range for list/string benchmarks: the paper's full 2..10
DEPTHS = default_depths()

#: depth range for the tree benchmarks (compile time grows as d^2)
TREE_DEPTHS = list(range(2, 9))

CACHE_DIR = pathlib.Path(
    os.environ.get(
        "REPRO_CACHE_DIR",
        pathlib.Path(__file__).resolve().parent.parent / ".bench-cache",
    )
)

JOBS = int(os.environ.get("REPRO_JOBS", os.cpu_count() or 1))


#: one worker pool for the session, shared by every runner; a runner with
#: another config closes it and starts one for that config
BACKEND = ParallelBackend(jobs=JOBS) if JOBS > 1 else None


def make_runner(config: CompilerConfig = CONFIG) -> BenchmarkRunner:
    """A cache-backed runner; parallel fan-out when more than one job."""
    return BenchmarkRunner(config, cache=ArtifactCache(CACHE_DIR), backend=BACKEND)


@pytest.fixture(scope="session", autouse=True)
def _close_backend():
    yield
    if BACKEND is not None:
        BACKEND.close()


@pytest.fixture(scope="session")
def runner() -> BenchmarkRunner:
    return make_runner()


def print_table(title: str, headers: list[str], rows: list[list]) -> None:
    """Render an aligned table to stdout (shown with pytest -s or on report)."""
    widths = [len(h) for h in headers]
    text_rows = [[str(cell) for cell in row] for row in rows]
    for row in text_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
    print()
    print(f"== {title} ==")
    print(fmt(headers))
    print(fmt(["-" * w for w in widths]))
    for row in text_rows:
        print(fmt(row))


def tail_fit(xs, ys, points: int = 4):
    """Fit the last ``points`` samples: optimizer outputs often have small-n
    boundary irregularities; the asymptotic claim concerns the tail."""
    from repro.cost import fit_report

    k = min(points, len(xs))
    return fit_report(list(xs)[-k:], list(ys)[-k:])


def has_linear_growth(ys) -> bool:
    """True when per-step increments stop growing (linear trend, tolerant of
    even/odd oscillation in optimizer outputs; quadratic series fail)."""
    diffs = [b - a for a, b in zip(ys, ys[1:])]
    half = max(1, len(diffs) // 2)
    return max(diffs[half:]) <= max(diffs[:half]) * 1.3
