"""Figure 24 / Appendix H: synergy of individual program-level optimizations
with circuit optimizers.

For ``length-simplified``: every combination of {CN alone, CF alone, CF+CN}
with {nothing, ToffoliCancel, ZX-like}, as one ``fig24`` grid through the
shared cache-backed runner.  The paper's observations:

* each program-level optimization followed by a circuit optimizer beats the
  circuit optimizer alone;
* both program-level optimizations followed by a circuit optimizer beat
  each individually followed by it.
"""

from __future__ import annotations

from conftest import DEPTHS, print_table

from repro.benchsuite import paper_grid

PROGRAM = "length-simplified"
DEPTH = DEPTHS[-1]


def test_figure24_synergy(runner):
    grid = runner.run_grid(paper_grid("fig24", DEPTHS))
    t = {}
    for program_opt in ("none", "narrow", "flatten", "spire"):
        t[(program_opt, "-")] = grid.measure(PROGRAM, DEPTH, program_opt)["t"]
        for circuit_opt in ("toffoli-cancel", "zx-like"):
            row = grid.measure(PROGRAM, DEPTH, f"{program_opt}+{circuit_opt}")
            t[(program_opt, circuit_opt)] = row["t"]
    rows = [
        [po] + [t[(po, co)] for co in ("-", "toffoli-cancel", "zx-like")]
        for po in ("none", "narrow", "flatten", "spire")
    ]
    print_table(
        f"Figure 24: synergy at n={DEPTH} (T gates)",
        ["program-level", "no circuit opt", "+ToffoliCancel", "+ZX-like"],
        rows,
    )
    for circuit_opt in ("toffoli-cancel", "zx-like"):
        # CN + optimizer beats optimizer alone
        assert t[("narrow", circuit_opt)] <= t[("none", circuit_opt)]
        # CF + optimizer beats optimizer alone
        assert t[("flatten", circuit_opt)] <= t[("none", circuit_opt)]
        # CF + CN + optimizer beats each individually + optimizer
        assert t[("spire", circuit_opt)] <= t[("narrow", circuit_opt)]
        assert t[("spire", circuit_opt)] <= t[("flatten", circuit_opt)]
        # and the combination beats the program-level pass alone
        assert t[("spire", circuit_opt)] <= t[("spire", "-")]


def test_figure24_benchmark(runner, benchmark):
    benchmark(lambda: runner.optimize_circuit(PROGRAM, 3, "toffoli-cancel", "spire"))
