"""The `analyze` pipeline stage: registration, static bound, verification."""

from __future__ import annotations

import pytest

from repro.analysis.passes import StaticCostBound
from repro.compiler import compile_source
from repro.config import CompilerConfig
from repro.cost.exact import exact_counts
from repro.errors import ReproError
from repro.lang.desugar import lower_entry
from repro.lang.parser import parse_program
from repro.passes import (
    canonical_pipeline,
    pass_catalog,
    resolve_pipeline,
    rewrite_ir,
)

CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=6)


class TestRegistration:
    def test_analyze_is_a_registered_pass(self):
        rows = pass_catalog()
        analyze = [r for r in rows if r["name"] == "analyze"]
        assert len(analyze) == 1
        assert analyze[0]["stage"] == "analyze"

    def test_analyze_sorts_before_ir_passes(self):
        assert (
            canonical_pipeline("analyze,flatten,narrow")
            == "analyze,flatten,narrow,alloc,lower"
        )
        pipe = resolve_pipeline("analyze,flatten,narrow")
        assert [p.name for p in pipe.analyze_passes] == ["analyze"]

    def test_analyze_after_lower_rejected(self):
        from repro.passes import Pipeline

        with pytest.raises(ReproError):
            Pipeline.parse("alloc,lower,analyze")

    def test_ir_prefixes_keep_the_analyze_head(self):
        pipe = resolve_pipeline("analyze,flatten,narrow")
        prefixes = [p.spec() for p in pipe.ir_prefixes()]
        assert all(p.startswith("analyze,") for p in prefixes)
        assert prefixes[-1] == pipe.spec()


class TestStaticBoundInPipeline:
    def test_bound_is_attached_and_exact(self, length_source):
        cp = compile_source(
            length_source, "length", 3, CFG,
            "analyze,flatten,narrow,alloc,lower",
        )
        assert isinstance(cp.analysis, StaticCostBound)
        assert cp.analysis.pipeline == cp.pipeline
        assert (cp.analysis.mcx, cp.analysis.t) == (
            cp.mcx_complexity(), cp.t_complexity(),
        )
        # the clean benchmark has no core-IR findings
        assert cp.analysis.diagnostics == ()

    def test_bound_prices_this_pipelines_rewrite(self, length_source):
        """The bound differs across pipelines because it prices the
        statement *after* this pipeline's own IR passes."""
        plain = compile_source(
            length_source, "length", 3, CFG, "analyze,alloc,lower"
        )
        flat = compile_source(
            length_source, "length", 3, CFG, "analyze,flatten,alloc,lower"
        )
        assert plain.analysis.t != flat.analysis.t
        assert plain.analysis.t == plain.t_complexity()
        assert flat.analysis.t == flat.t_complexity()

    def test_verify_checks_equality_at_lower(self, length_source):
        cp = compile_source(
            length_source, "length", 3, CFG,
            "analyze,flatten,narrow,alloc,lower", verify=True,
        )
        assert cp.analysis is not None

    def test_verify_final_t_count_below_bound(self, length_source):
        cp = compile_source(
            length_source, "length", 3, CFG,
            "analyze,flatten,narrow,alloc,lower,peephole", verify=True,
        )
        assert cp.circuit.t_count() <= cp.analysis.t

    def test_pipeline_without_analyze_has_no_bound(self, length_source):
        cp = compile_source(length_source, "length", 3, CFG, "spire")
        assert cp.analysis is None


class TestStaticApplication:
    @pytest.mark.parametrize("preset", ["flatten", "narrow", "spire"])
    def test_static_rewrite_matches_the_manager(self, length_source, preset):
        """rewrite_ir must produce the same statement the manager's
        (possibly engine-fused) run does."""
        program = parse_program(length_source)
        lowered = lower_entry(program, "length", 3, CFG)
        pipe = resolve_pipeline(preset)
        static_stmt = rewrite_ir(
            pipe, lowered.stmt, lowered.table, lowered.param_types
        )
        cp = compile_source(length_source, "length", 3, CFG, preset)
        assert static_stmt == cp.core
        counts = exact_counts(
            static_stmt, cp.table, cp.var_types, cp.cell_bits
        )
        assert counts == (cp.mcx_complexity(), cp.t_complexity())
