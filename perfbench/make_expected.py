"""Write ``expected.json``: the row every benchmark request must return.

    PYTHONPATH=src python3 perfbench/make_expected.py

Rows come from a plain in-process compile, and each is checked against a
reference outside the compile pipeline before it is written: MCX and T
of Spire and un-optimized circuits against the exact cost model
(``BenchmarkRunner.exact_model_counts``), and T after a gate pass
against the frozen seed T-counts in ``tests/data/seed_tcounts.json``.
The program sources are stored too, for the inline-source requests of
``serve-cold``.  Rerun it only for a change meant to alter circuits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import workloads
from repro.benchsuite.programs import get_entry, get_source
from repro.benchsuite.runner import BenchmarkRunner
from repro.config import CompilerConfig

SEED_TCOUNTS = Path(__file__).resolve().parent.parent / "tests" / "data" / "seed_tcounts.json"


def main() -> int:
    seed = json.loads(SEED_TCOUNTS.read_text())
    if seed["config"] != workloads.CONFIG:
        print("seed T-counts were recorded under another config", file=sys.stderr)
        return 1
    runner = BenchmarkRunner(CompilerConfig(**workloads.CONFIG))
    rows = {}
    for point in workloads.WARM:
        name, depth, pipeline = point
        row = runner.measure(name, depth, pipeline).row()
        preset, _, gate = pipeline.partition("+")
        if gate:
            ok = row["t"] == seed["counts"][f"{name}|{depth}|{gate}"]
        else:
            ok = (row["mcx"], row["t"]) == runner.exact_model_counts(name, depth, preset)
        if not ok:
            print(f"{workloads.key(point)}: row disagrees with its reference", file=sys.stderr)
            return 1
        rows[workloads.key(point)] = {field: row[field] for field in workloads.CHECKED_FIELDS}
    programs = {
        name: {"source": get_source(name), "entry": get_entry(name)}
        for name, _ in workloads.PROGRAMS
    }
    expected = {"config": workloads.CONFIG, "programs": programs, "rows": rows}
    workloads.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
