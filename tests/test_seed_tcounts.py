"""The vectorized optimizers must reproduce the seed T-counts exactly.

``tests/data/seed_tcounts.json`` records, for every (benchmark, depth,
optimizer) triple in the trimmed depth range, the T-count the pure-Python
seed implementations produced before the gate-stream rewrite.  The packed
hot paths are required to be semantics-preserving *and* emission-preserving,
so every triple must still come out bit-for-bit identical.

Every triple is measured as the row of the pipeline ``none+<optimizer>``,
the route every grid row takes.  ``greedy-search`` is recorded in
``preprocess_only`` mode (``none+greedy-search(preprocess_only=true)``):
its full search loop is wall-clock bounded and therefore not
deterministic across machines.

Triples whose recorded T-count exceeds :data:`SLOW_THRESHOLD` carry the
``slow`` marker (their Clifford+T expansions dominate the suite's wall
time); CI runs them in a separate parallel tier while the fast tier keeps
every (benchmark, optimizer) pair covered at small depth.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.benchsuite import BenchmarkRunner
from repro.config import CompilerConfig

DATA = pathlib.Path(__file__).resolve().parent / "data" / "seed_tcounts.json"
SEED = json.loads(DATA.read_text())

assert SEED["greedy_search_mode"] == "preprocess_only"

_RUNNER = None


def _runner() -> BenchmarkRunner:
    global _RUNNER
    if _RUNNER is None:
        _RUNNER = BenchmarkRunner(CompilerConfig(**SEED["config"]))
    return _RUNNER


SLOW_THRESHOLD = 20000


def _case(key: str):
    marks = [pytest.mark.slow] if SEED["counts"][key] > SLOW_THRESHOLD else []
    return pytest.param(key, marks=marks, id=key)


@pytest.mark.parametrize("key", [_case(key) for key in sorted(SEED["counts"])])
def test_t_count_matches_seed(key):
    name, depth, optimizer = key.split("|")
    if optimizer == "greedy-search":
        optimizer = "greedy-search(preprocess_only=true)"
    point = _runner().measure(
        name, None if depth == "None" else int(depth), f"none+{optimizer}"
    )
    assert point.t == SEED["counts"][key], key
