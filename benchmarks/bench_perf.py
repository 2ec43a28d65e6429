"""Perf trajectory harness: current hot paths vs the frozen seed implementations.

Times the three rewritten hot paths A/B against the pure-Python seed versions
kept verbatim in :mod:`repro.reference`:

* the ``peephole`` optimizer baseline (Clifford+T decomposition + window
  cancellation to fixpoint);
* the ``rotation-merge`` baseline (phase folding + cancellation), run through
  the benchmark runner so the shared decomposition cache is exercised;
* the dense statevector simulator on Clifford+T circuits of test-suite size.

Results (per-point wall clock, bit-for-bit output checks, and aggregate
speedups) are written to ``BENCH_perf.json`` at the repository root so future
PRs have a perf trajectory to compare against.

The ``kernels`` section times the plan-batched ``unitary`` against the
per-gate kernels and records the batch statistics behind the win; the
``--guard`` mode re-measures the per-pass breakdown and fails on any pass
more than 25% slower than the committed ``BENCH_perf.json`` row.

Run as a script::

    python benchmarks/bench_perf.py            # trimmed default range
    python benchmarks/bench_perf.py --quick    # CI smoke (seconds)
    python benchmarks/bench_perf.py --guard    # regression gate vs baseline
    REPRO_FULL=1 python benchmarks/bench_perf.py   # deeper range

or through pytest (``pytest benchmarks/bench_perf.py -s``).  The default and
full modes assert the acceptance thresholds — >=3x for peephole and
rotation-merge, >=2x for statevector ``run``; the quick smoke run only
enforces the bit-for-bit output checks (wall-clock floors are too noisy for
shared CI runners).
"""

from __future__ import annotations

import json
import os
import pathlib
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
if not any(p == str(ROOT / "src") for p in sys.path):
    sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from repro import reference
from repro.benchsuite import ArtifactCache, BenchmarkRunner, paper_grid
from repro.circuit import Circuit, cnot, h, t, tdg, to_clifford_t, toffoli
from repro.circuit.statevector import run
from repro.config import CompilerConfig
from repro.passes import make_pass

CONFIG = CompilerConfig(word_width=3, addr_width=3, heap_cells=6)

#: (benchmark, depth) points per mode.  The default list covers the trimmed
#: depth range the test suite and tables use; ``--quick`` is a CI smoke run;
#: ``REPRO_FULL=1`` extends toward the paper's ranges.
QUICK_POINTS = [("length", 2), ("sum", 2)]
DEFAULT_POINTS = [
    ("length", 2),
    ("length", 3),
    ("length", 4),
    ("sum", 3),
    ("is_prefix", 3),
    ("compare", 2),
]
FULL_EXTRA = [("length", 5), ("length", 6), ("sum", 4), ("sum", 5)]

THRESHOLDS = {
    "peephole_speedup": 3.0,
    "rotation_merge_speedup": 3.0,
    "statevector_run_speedup": 2.0,
}


def _mode() -> str:
    if os.environ.get("BENCH_PERF_QUICK") == "1" or "--quick" in sys.argv[1:]:
        return "quick"
    if os.environ.get("REPRO_FULL") == "1":
        return "full"
    return "default"


def _points(mode: str):
    if mode == "quick":
        return list(QUICK_POINTS)
    if mode == "full":
        return DEFAULT_POINTS + FULL_EXTRA
    return list(DEFAULT_POINTS)


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def _sim_circuits(mode: str):
    """Deterministic Clifford+T circuits of test-suite size (<= 12 qubits)."""
    reps = 2 if mode == "quick" else 8
    n = 10 if mode == "quick" else 14
    ladder = [toffoli(i, i + 1, i + 2) for i in range(n - 2)]
    mixed = []
    for r in range(reps):
        for q in range(n):
            mixed.append(h(q))
            mixed.append(t(q))
            mixed.append(cnot(q, (q + 1 + r) % n))
            mixed.append(tdg((q + r) % n))
        mixed.extend(ladder)
    return [
        ("toffoli-ladder", to_clifford_t(Circuit(n, ladder * (4 * reps)))),
        ("mixed-clifford-t", to_clifford_t(Circuit(n, mixed))),
    ]


def _grid_section(mode: str) -> dict:
    """Cold-vs-warm timings of the cache-backed grid runner (fig15 grid).

    A cold sweep into a fresh artifact cache, then a warm replay through a
    fresh runner sharing the cache: the replay must produce bit-identical
    measurements and (outside quick mode) complete in under 10% of the
    cold wall time.
    """
    import shutil
    import tempfile

    depths = [2, 3] if mode == "quick" else [2, 3, 4, 5, 6]
    tasks = paper_grid("fig15", depths)
    cache_dir = tempfile.mkdtemp(prefix="bench-perf-grid-")
    try:
        cold_s, cold = _timed(
            BenchmarkRunner(CONFIG, cache=ArtifactCache(cache_dir)).run_grid, tasks
        )
        warm_s, warm = _timed(
            BenchmarkRunner(CONFIG, cache=ArtifactCache(cache_dir)).run_grid, tasks
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    identical = all(
        (a.get("t"), a.get("mcx"), a.get("qubits"))
        == (b.get("t"), b.get("mcx"), b.get("qubits"))
        for a, b in zip(cold.rows, warm.rows)
    )
    return {
        "grid": "fig15",
        "depths": depths,
        "points": len(tasks),
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "warm_over_cold": round(warm_s / cold_s, 4) if cold_s else 0.0,
        "identical_rows": identical,
        "all_cached_on_warm": warm.cached_fraction() == 1.0,
    }


def _passes_section(mode: str) -> list:
    """Per-step timing breakdown of full pipelines (pass-manager records).

    Performance work reads this to target the slowest step; the entries are
    informational (wall clocks), but each must carry a complete record
    list — one row per compile step: the strict typecheck, the IR
    rewrites fused as in production, the relaxed typecheck after them,
    ``alloc``, ``lower`` and each gate pass.
    """
    from repro.benchsuite import get_entry, get_source
    from repro.compiler import compile_source

    points = [("length", 2)] if mode == "quick" else [("length", 4), ("sum", 3)]
    pipelines = ["spire+peephole", "spire+zx-like"]
    entries = []
    for name, depth in points:
        for spec in pipelines:
            compiled = compile_source(
                get_source(name), get_entry(name), depth, CONFIG, spec
            )
            records = compiled.pass_records
            slowest = max(records, key=lambda r: r.seconds)
            entries.append(
                {
                    "benchmark": name,
                    "depth": depth,
                    "pipeline": compiled.pipeline,
                    "t_count": compiled.circuit.t_count(),
                    "passes": [r.row() for r in records],
                    "slowest_pass": slowest.name,
                    "slowest_seconds": round(slowest.seconds, 4),
                }
            )
    return entries


def _kernels_section(mode: str) -> dict:
    """Plan-batched ``unitary`` (one sweep per diagonal/permutation run)
    against the per-gate kernels, with the mix-run lengths that explain
    the win.  Purely informational: the acceptance thresholds live in the
    seed-vs-current summary, and ``optimize[*].identical_gates`` checks
    the compiled cancel and fold kernels against the seed.
    """
    from repro.circuit import statevector as sv

    n = 8 if mode == "quick" else 10
    ladder = [toffoli(i, i + 1, i + 2) for i in range(n - 2)]
    circ = to_clifford_t(Circuit(n, ladder * 4))
    plan = sv._circuit_plan(circ)
    run_lengths = [len(seg[1]) for seg in plan if seg[0] == "mix"]
    batched_s, mat = _timed(sv.unitary, circ)

    def per_gate_unitary():
        out = np.eye(1 << n, dtype=np.complex128)
        for gate in circ.gates:
            out = sv.apply_gate(out, gate, n)
        return out

    pergate_s, ref_mat = _timed(per_gate_unitary)
    statevector = {
        "input": f"toffoli-ladder clifford+t ({n} qubits)",
        "gates": len(circ.gates),
        "mix_runs": len(run_lengths),
        "mean_run_length": round(
            sum(run_lengths) / len(run_lengths), 2
        ) if run_lengths else 0.0,
        "max_run_length": max(run_lengths, default=0),
        "unitary_batched_seconds": round(batched_s, 4),
        "unitary_per_gate_seconds": round(pergate_s, 4),
        "unitary_speedup": round(pergate_s / batched_s, 2) if batched_s else None,
        "allclose": bool(np.allclose(mat, ref_mat)),
    }

    return {"statevector": statevector}


def collect(mode: str) -> dict:
    """Measure every point and return the report dict."""
    runner = BenchmarkRunner(CONFIG)
    report = {"mode": mode, "config": vars(CONFIG), "optimize": [], "simulate": []}

    seed_totals = {"peephole": 0.0, "rotation_merge": 0.0}
    new_totals = {"peephole": 0.0, "rotation_merge": 0.0}
    for name, depth in _points(mode):
        compile_s, compiled = _timed(runner.compile, name, depth)
        circ = compiled.circuit
        entry = {
            "benchmark": name,
            "depth": depth,
            "gates": len(circ.gates),
            "compile_seconds": round(compile_s, 4),
        }
        for label, seed_fn, opt_name in (
            ("peephole", reference.peephole_seed, "peephole"),
            ("rotation_merge", reference.rotation_merge_seed, "rotation-merge"),
        ):
            seed_s, seed_circ = _timed(seed_fn, circ)
            new_s, result = _timed(
                make_pass(opt_name).run, circ, runner.decomposition_cache
            )
            identical = seed_circ.gates == result.gates
            entry[label] = {
                "seed_seconds": round(seed_s, 4),
                "seconds": round(new_s, 4),
                "speedup": round(seed_s / new_s, 2) if new_s else float("inf"),
                "t_count": result.t_count(),
                "identical_gates": identical,
            }
            seed_totals[label] += seed_s
            new_totals[label] += new_s
        report["optimize"].append(entry)

    sim_seed = sim_new = 0.0
    for label, circ in _sim_circuits(mode):
        seed_s, a = _timed(reference.run_seed, circ)
        new_s, b = _timed(run, circ)
        report["simulate"].append(
            {
                "circuit": label,
                "qubits": circ.num_qubits,
                "gates": len(circ.gates),
                "seed_seconds": round(seed_s, 4),
                "seconds": round(new_s, 4),
                "speedup": round(seed_s / new_s, 2) if new_s else float("inf"),
                "allclose": bool(np.allclose(a, b)),
            }
        )
        sim_seed += seed_s
        sim_new += new_s

    report["grid"] = _grid_section(mode)
    report["passes"] = _passes_section(mode)
    report["kernels"] = _kernels_section(mode)
    report["summary"] = {
        "peephole_speedup": round(seed_totals["peephole"] / new_totals["peephole"], 2),
        "rotation_merge_speedup": round(
            seed_totals["rotation_merge"] / new_totals["rotation_merge"], 2
        ),
        "statevector_run_speedup": round(sim_seed / sim_new, 2),
        "all_outputs_identical": all(
            entry[label]["identical_gates"]
            for entry in report["optimize"]
            for label in ("peephole", "rotation_merge")
        )
        and all(entry["allclose"] for entry in report["simulate"]),
    }
    return report


def write_report(report: dict) -> pathlib.Path:
    out = ROOT / "BENCH_perf.json"
    out.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return out


def _print_report(report: dict) -> None:
    print(f"== bench_perf ({report['mode']} mode) ==")
    for entry in report["optimize"]:
        print(
            f"{entry['benchmark']}@{entry['depth']}: compile {entry['compile_seconds']}s; "
            f"peephole {entry['peephole']['speedup']}x; "
            f"rotation-merge {entry['rotation_merge']['speedup']}x"
        )
    for entry in report["simulate"]:
        print(
            f"simulate {entry['circuit']} ({entry['qubits']}q, {entry['gates']} gates): "
            f"{entry['speedup']}x"
        )
    grid = report["grid"]
    print(
        f"grid {grid['grid']} ({grid['points']} points): cold {grid['cold_seconds']}s, "
        f"warm {grid['warm_seconds']}s (ratio {grid['warm_over_cold']})"
    )
    for entry in report["passes"]:
        breakdown = " ".join(
            f"{row['pass']}={row['seconds']:.4f}s" for row in entry["passes"]
        )
        print(
            f"pipeline {entry['benchmark']}@{entry['depth']} "
            f"[{entry['pipeline']}]: slowest={entry['slowest_pass']} "
            f"({breakdown})"
        )
    print(f"kernels: unitary={report['kernels']['statevector']['unitary_speedup']}x")
    for key, value in report["summary"].items():
        print(f"  {key}: {value}")


def _check(report: dict) -> list:
    failures = []
    if not report["summary"]["all_outputs_identical"]:
        failures.append("vectorized output differs from seed output")
    grid = report["grid"]
    if not grid["identical_rows"]:
        failures.append("warm grid replay differs from cold measurements")
    if not grid["all_cached_on_warm"]:
        failures.append("warm grid run had cold points (cache not replaying)")
    for entry in report["passes"]:
        if not entry["passes"]:
            failures.append(
                f"pipeline {entry['pipeline']} produced no pass records"
            )
    if not report["kernels"]["statevector"]["allclose"]:
        failures.append("batched unitary differs from per-gate kernels")
    if report["mode"] == "quick":
        # CI smoke run: shared runners make wall-clock floors flaky, so the
        # quick mode only enforces the bit-for-bit output checks
        return failures
    for key, floor in THRESHOLDS.items():
        if report["summary"][key] < floor:
            failures.append(f"{key} {report['summary'][key]} < {floor}")
    if grid["warm_over_cold"] >= 0.10:
        failures.append(
            f"warm grid replay took {grid['warm_over_cold']:.2%} of the cold run "
            "(>= 10%)"
        )
    return failures


#: Guard tolerances: a pass may regress up to 25% relative, and passes
#: under the noise floor are never compared (CI runners jitter short
#: timings far beyond any real regression signal).
GUARD_SLOWDOWN = 1.25
GUARD_FLOOR_SECONDS = 0.05


def _seconds_by_pass(rows: list) -> dict:
    """A pipeline's seconds per pass name: a step that runs twice, as
    ``typecheck`` does after IR passes, counts both runs."""
    seconds: dict = {}
    for row in rows:
        seconds[row["pass"]] = seconds.get(row["pass"], 0.0) + row["seconds"]
    return seconds


def guard(baseline_path: pathlib.Path | None = None) -> list:
    """Compare fresh per-pass timings against the committed baseline.

    Re-measures the ``passes`` section and fails any pipeline pass that
    is more than :data:`GUARD_SLOWDOWN` slower than the matching row in
    the committed ``BENCH_perf.json`` (ignoring rows under the noise
    floor on both sides).  Returns the list of failure strings; missing
    baselines or layout changes degrade to a warning, not a failure, so
    the guard never blocks the PR that reshapes the report.
    """
    path = baseline_path or (ROOT / "BENCH_perf.json")
    if not path.exists():
        print(f"guard: no baseline at {path}; nothing to compare", file=sys.stderr)
        return []
    baseline = json.loads(path.read_text())
    base_passes = {
        (e["benchmark"], e["depth"], e["pipeline"]): _seconds_by_pass(e["passes"])
        for e in baseline.get("passes", [])
    }
    if not base_passes:
        print("guard: baseline has no passes section; skipping", file=sys.stderr)
        return []
    fresh = _passes_section(baseline.get("mode", "default"))
    failures = []
    compared = 0
    for entry in fresh:
        key = (entry["benchmark"], entry["depth"], entry["pipeline"])
        base_rows = base_passes.get(key)
        if base_rows is None:
            continue
        for name, seconds in _seconds_by_pass(entry["passes"]).items():
            base_s = base_rows.get(name)
            if base_s is None:
                continue
            floor = max(base_s, GUARD_FLOOR_SECONDS)
            compared += 1
            if seconds > floor * GUARD_SLOWDOWN + GUARD_FLOOR_SECONDS:
                failures.append(
                    f"pass {name} in {key[0]}@{key[1]} [{key[2]}]: "
                    f"{seconds:.4f}s vs baseline {base_s:.4f}s "
                    f"(> {GUARD_SLOWDOWN:.2f}x + {GUARD_FLOOR_SECONDS}s floor)"
                )
            else:
                print(
                    f"guard ok: {name} {key[0]}@{key[1]} [{key[2]}] "
                    f"{seconds:.4f}s (baseline {base_s:.4f}s)"
                )
    print(f"guard: compared {compared} pass timings against {path.name}")
    return failures


def test_perf_speedups():
    report = collect(_mode())
    write_report(report)
    _print_report(report)
    assert not _check(report)


def main() -> int:
    if "--guard" in sys.argv[1:]:
        failures = guard()
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1 if failures else 0
    report = collect(_mode())
    path = write_report(report)
    _print_report(report)
    print(f"report written to {path}")
    failures = _check(report)
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
