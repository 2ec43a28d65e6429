"""Figure 2: gate counts of the compiled ``length`` circuit.

Regenerates both series of the figure — the MCX-complexity (idealized
hardware) and the T-complexity (surface code) of ``length`` as the recursion
depth grows — and checks the headline claim of Section 3.2: MCX is O(n)
while T is O(n^2).  Runs the ``fig2`` grid (full depth range 2..10) through
the shared cache-backed grid runner.
"""

from __future__ import annotations

from conftest import DEPTHS, print_table

from repro.benchsuite import BenchmarkRunner, paper_grid
from repro.cost import fit_report


def test_figure2_series(runner):
    grid = runner.run_grid(paper_grid("fig2", DEPTHS))
    mcx_series = grid.series("length", DEPTHS, "mcx")
    t_series = grid.series("length", DEPTHS, "t")
    rows = [[d, m, t] for d, m, t in zip(DEPTHS, mcx_series, t_series)]
    mcx_fit = fit_report(DEPTHS, mcx_series)
    t_fit = fit_report(DEPTHS, t_series)
    rows.append(["fit", mcx_fit, t_fit])
    print_table(
        "Figure 2: length — gates vs recursion depth",
        ["n", "MCX-complexity", "T-complexity"],
        rows,
    )
    assert mcx_fit.degree == 1, "idealized analysis is linear (Section 3.2)"
    assert t_fit.degree == 2, "error-corrected T-complexity is quadratic (Section 3.2)"


def test_figure2_compile_throughput(runner, benchmark):
    """pytest-benchmark hook: time one mid-range compilation."""
    depth = DEPTHS[len(DEPTHS) // 2]

    def compile_once():
        # a fresh runner memoizes nothing: every call parses, checks and
        # compiles the program again
        fresh = BenchmarkRunner(runner.config, cache=runner.cache)
        return fresh.compile("length", depth, "none")

    circuit = benchmark(compile_once)
    assert circuit.mcx_complexity() > 0
