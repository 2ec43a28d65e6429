"""The requests each benchmark workload sends, and why it sends them.

Every request compiles one Table 1 program of the paper at a small
recursion depth under one pipeline.  A workload's requests form a fixed
set; a run goes through it in whole rounds, each round in an order drawn
from ``--seed``, so every seed measures the same mix.  The rows each
request must return are in ``expected.json`` (see ``make_expected.py``).

This module is standard library only: ``run.py`` imports it without
importing the package under test.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

#: (program, depth, pipeline)
Point = Tuple[str, Optional[int], str]

#: compiler configuration of every request (the ``repro serve`` defaults)
CONFIG = {"word_width": 3, "addr_width": 3, "heap_cells": 6}

#: every Table 1 program at a depth where one cold compile takes 2-50 ms
PROGRAMS: List[Tuple[str, Optional[int]]] = [
    ("length", 3),
    ("length-simplified", 3),
    ("sum", 3),
    ("find_pos", 3),
    ("remove", 3),
    ("push_back", 3),
    ("pop_front", None),
    ("is_prefix", 3),
    ("num_matching", 3),
    ("compare", 2),
    ("contains", 2),
    ("insert", 2),
]

#: every gate pass of the paper's optimizer baselines, each on programs
#: where it takes 5-100 ms; run on the un-optimized circuit, so the seed
#: T-counts in tests/data/seed_tcounts.json cover every result
GATE_POINTS: List[Point] = [
    ("length", 2, "none+peephole"),
    ("length", 2, "none+toffoli-cancel"),
    ("sum", 2, "none+peephole"),
    ("sum", 2, "none+toffoli-cancel"),
    ("find_pos", 2, "none+toffoli-cancel"),
    ("pop_front", None, "none+rotation-merge"),
    ("pop_front", None, "none+zx-like"),
    ("length-simplified", 3, "none+peephole"),
    ("length-simplified", 3, "none+rotation-merge"),
    ("length-simplified", 2, "none+zx-like"),
]

#: the Spire pipeline of every program plus one point per gate pass:
#: the whole compiler from source text to a stored row
COLD: List[Point] = [(name, depth, "spire") for name, depth in PROGRAMS] + [
    GATE_POINTS[0], GATE_POINTS[3], GATE_POINTS[5], GATE_POINTS[9]
]

#: gate passes resumed from the cached lowered circuit (pipeline ``none``)
PREFIX: List[Point] = GATE_POINTS

#: every row the other in-process workloads produce, replayed whole
WARM: List[Point] = sorted(set(COLD + PREFIX), key=str)

#: inline sources never seen before, one Spire compile each: every Table 1
#: program equally often, as a client compiling the paper's programs
#: sends them; no traffic log of the service exists to weight them by
SERVE_COLD: List[Point] = [(name, depth, "spire") for name, depth in PROGRAMS]

#: requests the server has already answered
SERVE_WARM: List[Point] = WARM

POINTS: Dict[str, List[Point]] = {
    "cold": COLD,
    "prefix": PREFIX,
    "warm": WARM,
    "serve-cold": SERVE_COLD,
    "serve-pool": SERVE_COLD,
    "serve-warm": SERVE_WARM,
}

#: row fields a request must reproduce exactly
CHECKED_FIELDS = ("mcx", "t", "qubits", "predicted_mcx", "predicted_t")

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"


def key(point: Point) -> str:
    name, depth, pipeline = point
    return f"{name}|{depth}|{pipeline}"


def schedule(points: List[Point], seed: str, deadline: Optional[float]) -> Iterator[Point]:
    """``points`` in whole rounds, each in an order drawn from ``seed``.

    Without a deadline, one round; otherwise rounds repeat until one ends
    after ``deadline`` (a ``time.perf_counter()`` value).
    """
    rng = random.Random(seed)
    while True:
        order = list(points)
        rng.shuffle(order)
        yield from order
        if deadline is None or time.perf_counter() >= deadline:
            return


def load_expected() -> Dict[str, Dict[str, object]]:
    """``{"programs": {name: {source, entry}}, "rows": {key: row}}``."""
    return json.loads(EXPECTED_PATH.read_text())


def matches(row: Dict[str, object], want: Dict[str, object]) -> bool:
    return all(row.get(field) == want[field] for field in CHECKED_FIELDS)
