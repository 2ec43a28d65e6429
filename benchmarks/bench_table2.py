"""Table 2 (RQ4): T reduction and compile time — Spire vs circuit optimizers.

For ``length`` and ``length-simplified`` at the largest depth: the
T-complexity reduction and wall-clock time of Spire alone, each asymptotically
efficient circuit optimizer alone, and Spire followed by that optimizer.
The paper's headline: Spire achieves comparable reductions orders of
magnitude faster, and Spire + circuit optimizer beats either alone.

Timing: Spire's time is its row's ``compile_seconds``, the sum of every
step of the compile (the strict and the relaxed typecheck, the fused
``flatten+narrow`` rewrite, ``alloc`` and ``lower``).  A baseline's own
time is its gate pass's ``timings["<name>"]``.  Rows replayed from the
artifact cache report the *cold* run's timings and are flagged
``cached`` — a warm replay never presents a cache lookup as a fresh
compile measurement.
"""

from __future__ import annotations

from conftest import DEPTHS, print_table

from repro.benchsuite import paper_grid
from repro.passes import PassManager, resolve_pipeline

DEPTH = DEPTHS[-1]


def test_table2(runner):
    grid = runner.run_grid(paper_grid("table2", DEPTHS))
    rows = []
    reductions = {}
    for program in ("length-simplified", "length"):
        baseline = grid.measure(program, DEPTH, "none")["t"]
        spire_row = grid.measure(program, DEPTH, "spire")
        spire_t = spire_row["t"]
        spire_seconds = spire_row["compile_seconds"]
        replay = " (cached)" if spire_row["cached"] else ""
        rows.append(
            [program, "Spire (ours)", f"{100 * (1 - spire_t / baseline):.1f}%",
             f"{spire_seconds:.3f}s{replay}"]
        )
        reductions[(program, "spire")] = 1 - spire_t / baseline
        for name in ("toffoli-cancel", "zx-like"):
            alone = grid.measure(program, DEPTH, f"none+{name}")
            alone_seconds = alone["timings"][name]
            rows.append(
                [program, name, f"{100 * (1 - alone['t'] / baseline):.1f}%",
                 f"{alone_seconds:.3f}s"]
            )
            reductions[(program, name)] = 1 - alone["t"] / baseline
            combined = grid.measure(program, DEPTH, f"spire+{name}")
            combined_seconds = combined["timings"][name]
            rows.append(
                [program, f"Spire + {name}",
                 f"{100 * (1 - combined['t'] / baseline):.1f}%",
                 f"{spire_seconds + combined_seconds:.3f}s"]
            )
            reductions[(program, "spire+" + name)] = 1 - combined["t"] / baseline
    print_table(
        f"Table 2: T reduction and compile time at n={DEPTH}",
        ["program", "optimizer", "T reduction", "time"],
        rows,
    )
    for program in ("length-simplified", "length"):
        # Spire alone is already a large reduction...
        assert reductions[(program, "spire")] > 0.5
        # ...and the combination beats either alone (the synergy claim)
        for name in ("toffoli-cancel", "zx-like"):
            assert (
                reductions[(program, "spire+" + name)]
                >= reductions[(program, name)] - 1e-9
            )
            assert (
                reductions[(program, "spire+" + name)]
                >= reductions[(program, "spire")] - 1e-9
            )


def test_table2_spire_is_faster_than_circuit_optimizers(runner):
    """The compile-time headline: program-level optimization avoids ever
    materializing the large circuit, so it is much faster."""
    program = "length"
    import time

    start = time.perf_counter()
    from repro.opt import spire_optimize

    compiled = runner.compile(program, DEPTH, "none")
    spire_optimize(compiled.core)
    spire_seconds = time.perf_counter() - start
    pipeline = resolve_pipeline("none+toffoli-cancel")
    _, (record,), _ = PassManager(
        pipeline, decomposition_cache=runner.decomposition_cache
    ).run_gate_suffix(compiled.circuit, len(pipeline) - 1)
    print(f"\nSpire rewrite: {spire_seconds:.4f}s; "
          f"toffoli-cancel on the compiled circuit: {record.seconds:.3f}s; "
          f"ratio {record.seconds / max(spire_seconds, 1e-9):.0f}x")
    assert spire_seconds < record.seconds


def test_table2_spire_rewrite_benchmark(runner, benchmark):
    from repro.opt import spire_optimize

    compiled = runner.compile("length", DEPTH, "none")
    benchmark(lambda: spire_optimize(compiled.core))
