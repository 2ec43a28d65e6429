"""Symbolic cost bounds vs. the exact model and compiled circuits.

The fast tests validate the closed-form machinery and a representative
benchmark subset; the ``fuzz``-marked sweep validates every Table-1
program under every preset across full depth ranges, plus the static
bound against hundreds of generated programs (via the fuzz oracle).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from repro.analysis import (
    ClosedForm,
    fit_closed_form,
    static_bounds,
    symbolic_cost,
)
from repro.benchsuite.programs import (
    SOURCES,
    get_entry,
    get_source,
    is_unsized,
)
from repro.compiler import compile_source
from repro.config import CompilerConfig
from repro.cost.exact import exact_counts
from repro.errors import AnalysisError
from repro.lang.desugar import lower_entry
from repro.lang.parser import parse_program
from repro.opt import spire_optimize
from repro.passes import PRESETS, PassError

CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=6)


class TestClosedForm:
    def test_fit_linear(self):
        cf = fit_closed_form({1: 10, 2: 17, 3: 24, 4: 31}, degree_bound=1)
        assert cf.degree == 1
        assert cf.coeffs == (Fraction(3), Fraction(7))
        assert cf.valid_from == 1
        for d in range(1, 10):
            assert cf.evaluate(d) == 3 + 7 * d

    def test_low_depth_table(self):
        # d=1 breaks the pattern: kept as an exact table entry
        series = {1: 99, 2: 17, 3: 24, 4: 31, 5: 38}
        cf = fit_closed_form(series, degree_bound=1)
        assert cf.valid_from == 2
        assert cf.evaluate(1) == 99
        assert cf.evaluate(3) == 24
        assert cf.evaluate(50) == 3 + 7 * 50

    def test_degree_violation_raises(self):
        quadratic = {d: d * d for d in range(1, 6)}
        with pytest.raises(AnalysisError):
            fit_closed_form(quadratic, degree_bound=1)

    def test_constant_series(self):
        cf = fit_closed_form({1: 5, 2: 5, 3: 5}, degree_bound=2)
        assert cf.degree == 0
        assert cf.evaluate(7) == 5

    def test_missing_low_depth_raises(self):
        cf = ClosedForm((Fraction(2), Fraction(3)), valid_from=4,
                        exact=((2, 11),))
        assert cf.evaluate(2) == 11
        with pytest.raises(AnalysisError):
            cf.evaluate(3)


class TestStaticBounds:
    def test_equals_exact_model(self, length_source):
        program = parse_program(length_source)
        lowered = lower_entry(program, "length", 3, CFG)
        stmt = spire_optimize(lowered.stmt)
        from repro.analysis import counts_for_stmt

        direct = counts_for_stmt(stmt, lowered.table, lowered.param_types)
        assert static_bounds(program, "length", 3, "spire", CFG) == direct

    def test_unknown_preset_raises(self, length_source):
        """A bad spec is a PassError, as for every other spec consumer."""
        program = parse_program(length_source)
        with pytest.raises(PassError):
            static_bounds(program, "length", 3, "turbo", CFG)
        with pytest.raises(PassError):
            symbolic_cost(program, "length", "turbo", CFG)

    @pytest.mark.parametrize(
        "spec",
        # any spec that compiles can be analyzed: raw pass lists too
        sorted(PRESETS) + ["flatten,narrow,alloc,lower", "flatten,alloc,lower"],
    )
    def test_matches_compiled_circuit(self, length_source, spec):
        program = parse_program(length_source)
        for depth in (1, 2, 4):
            compiled = compile_source(
                length_source, "length", depth, CFG, spec
            )
            assert static_bounds(program, "length", depth, spec, CFG) == (
                compiled.mcx_complexity(),
                compiled.t_complexity(),
            )


class TestSymbolic:
    def test_length_closed_forms(self, length_source):
        program = parse_program(length_source)
        report = symbolic_cost(program, "length", "spire", CFG)
        assert report.entry == "length"
        assert report.size_param is not None
        bound = report.entry_bound
        assert bound.sized
        assert bound.t.degree <= 2
        # the closed form extrapolates beyond the probed window
        probe_max = max(bound.depths)
        for depth in (1, 2, probe_max + 3):
            compiled = compile_source(
                length_source, "length", depth, CFG, "spire"
            )
            assert report.evaluate(depth) == (
                compiled.mcx_complexity(),
                compiled.t_complexity(),
            )

    def test_recurrence_rendered(self, length_source):
        report = symbolic_cost(
            parse_program(length_source), "length", "spire", CFG
        )
        rec = report.entry_bound.recurrence
        assert rec.startswith("recurrence: T_length(d) = ")
        assert "T_length(d-1)" in rec

    def test_unsized_entry_is_constant(self):
        source = get_source("pop_front")
        program = parse_program(source)
        report = symbolic_cost(program, get_entry("pop_front"), "none", CFG)
        bound = report.entry_bound
        assert not bound.sized
        assert bound.t.degree == 0
        compiled = compile_source(
            source, get_entry("pop_front"), None, CFG, "none"
        )
        assert report.evaluate(None) == (
            compiled.mcx_complexity(),
            compiled.t_complexity(),
        )

    def test_callee_bounds_included(self):
        program = parse_program(get_source("contains"))
        report = symbolic_cost(program, "contains", "spire", CFG)
        names = [fb.name for fb in report.functions]
        assert names[0] == "contains"
        assert "compare" in names
        # nested recursion: contains is one degree above compare
        by_name = {fb.name: fb for fb in report.functions}
        assert by_name["contains"].t.degree == by_name["compare"].t.degree + 1

    def test_rows_and_render_shared_report_path(self, length_source):
        report = symbolic_cost(
            parse_program(length_source), "length", "none", CFG
        )
        rows = report.rows()
        assert rows[0]["function"] == "length"
        assert isinstance(rows[0]["t"], str)
        human = report.render_human()
        assert "T(d)" in human and "MCX(d)" in human


# --------------------------------------------------------- exhaustive sweep
@pytest.mark.fuzz
@pytest.mark.parametrize("preset", sorted(PRESETS))
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_symbolic_bounds_dominate_all_benchmarks(name, preset):
    """Every Table-1 program: the fitted closed form equals the exact cost
    model AND the compiled circuit at every depth in the paper's range."""
    source = get_source(name)
    entry = get_entry(name)
    program = parse_program(source)
    report = symbolic_cost(program, entry, preset, CFG)
    depths = [None] if is_unsized(name) else list(range(1, 9))
    for depth in depths:
        compiled = compile_source(source, entry, depth, CFG, preset)
        mcx, t = report.evaluate(depth)
        assert (mcx, t) == (
            compiled.mcx_complexity(),
            compiled.t_complexity(),
        ), f"{name}@{depth} [{preset}]"
        direct = exact_counts(
            compiled.core, compiled.table, compiled.var_types,
            compiled.cell_bits,
        )
        assert (mcx, t) == direct


@pytest.mark.fuzz
def test_static_bound_oracle_over_fuzz_seeds():
    """>= 200 generated programs: the static bound equals compiled counts
    under every preset (the check_static_analysis oracle path)."""
    from repro.fuzz import GenConfig, OracleConfig, check_generated

    gen = GenConfig()
    cfg = OracleConfig(check_optimizers=False, check_statevector=False,
                       n_inputs=1)
    failures = []
    for seed in range(200):
        report = check_generated(seed, gen, cfg)
        if not report.ok:
            failures.append((seed, report.oracle, report.message))
    assert not failures, failures[:5]
