"""Lint regressions: every diagnostic code, both historical corpus bugs
flagged statically, and lint stability across optimization presets."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.analysis import (
    DEFAULT_LINT_SIZE,
    check_dead_bindings,
    check_dead_branches,
    check_empty_blocks,
    check_hadamard_budget,
    check_zero_bound_calls,
    inlined_hadamard_count,
    lint_core_stmt,
    lint_source,
    pick_entry,
)
from repro.benchsuite.programs import (
    SOURCES,
    get_entry,
    get_source,
    is_unsized,
)
from repro.ir import core
from repro.lang.desugar import lower_entry
from repro.lang.parser import parse_program
from repro.passes import PRESETS, resolve_pipeline, rewrite_ir

CASES = Path(__file__).parent / "corpus" / "cases"

H_WALK_SRC = """
fun walk[n](x: bool) -> bool {
  H(x);
  let y <- walk[n-1](x);
  return y;
}
"""


def _codes(diags):
    return [d.code for d in diags]


class TestHistoricalBugs:
    def test_guarded_redeclare_corpus_case_is_flagged(self):
        """The infer_types binding-count bug: its shrunk reproducer
        re-declares a parameter inside a with-setup. The linter must call
        out the idiom (RPA103) even though the program now compiles."""
        case = json.loads(
            (CASES / "infer-types-guarded-redeclare.json").read_text()
        )
        report = lint_source(
            case["source"], entry=case["entry"], size=case["size"]
        )
        assert "RPA103" in _codes(report.diagnostics)
        # the program is legal: an info finding, not an error
        assert not report.errors

    def test_hadamard_multiplicity_bug_is_flagged(self):
        """The Hadamard under-counting bug (count vs. multiplicity under
        inlining): a single textual H in a recursive function multiplies
        with the bound. RPA301 must fire from the *inlined* count."""
        program = parse_program(H_WALK_SRC)
        # one textual H, `size` inlined copies
        assert inlined_hadamard_count(program, "walk", 5) == 5
        assert not check_hadamard_budget(program, "walk", 12)
        diags = check_hadamard_budget(program, "walk", 13)
        assert _codes(diags) == ["RPA301"]
        assert "2^13" in diags[0].message

    def test_inlined_count_matches_lowered_core(self):
        program = parse_program(H_WALK_SRC)
        for size in (1, 3, 5):
            lowered = lower_entry(program, "walk", size)
            direct = sum(
                1
                for s in lowered.stmt.walk()
                if isinstance(s, core.Hadamard)
            )
            assert inlined_hadamard_count(program, "walk", size) == direct


class TestCodes:
    def test_rpa101_with_body_modifies_setup_dep(self):
        stmt = core.With(
            core.Assign("a", core.AtomE(core.Var("x"))),
            core.Assign("x", core.AtomE(core.Lit(core.UIntV(1)))),
        )
        diags = lint_core_stmt(stmt)
        assert _codes(diags) == ["RPA101"]
        assert diags[0].severity == "error"

    def test_rpa101_clean_with(self):
        stmt = core.With(
            core.Assign("a", core.AtomE(core.Var("x"))),
            core.Assign("b", core.AtomE(core.Var("a"))),
        )
        assert lint_core_stmt(stmt) == []

    def test_rpa102_dead_binding(self):
        src = """
        fun main(x: uint) -> uint {
          let dead <- x + 1;
          let y <- x;
          return y;
        }
        """
        fdef = parse_program(src).fundefs[0]
        diags = check_dead_bindings(fdef)
        assert _codes(diags) == ["RPA102"]
        assert "'dead'" in diags[0].message

    def test_rpa102_used_bindings_are_clean(self):
        src = """
        fun main(x: uint) -> uint {
          let a <- x + 1;
          let y <- a;
          return y;
        }
        """
        assert check_dead_bindings(parse_program(src).fundefs[0]) == []

    def test_rpa201_constant_condition(self):
        src = """
        fun main(x: uint) -> uint {
          let c <- 3 == 3;
          if c { let y <- 1; } else { let y <- 2; }
          return y;
        }
        """
        fdef = parse_program(src).fundefs[0]
        assert _codes(check_dead_branches(fdef)) == ["RPA201"]

    def test_rpa201_data_dependent_condition_is_clean(self):
        src = """
        fun main(x: uint) -> uint {
          let c <- x == 3;
          if c { let y <- 1; } else { let y <- 2; }
          return y;
        }
        """
        fdef = parse_program(src).fundefs[0]
        assert check_dead_branches(fdef) == []

    def test_rpa202_empty_blocks(self):
        src = """
        fun main(x: uint) -> uint {
          let c <- x == 1;
          if c { } else { let y <- 2; }
          return x;
        }
        """
        fdef = parse_program(src).fundefs[0]
        assert _codes(check_empty_blocks(fdef)) == ["RPA202"]

    def test_rpa203_zero_bound_call(self):
        src = """
        fun f[n](x: uint) -> uint {
          let y <- x;
          return y;
        }
        fun main(x: uint) -> uint {
          let y <- f[0](x);
          return y;
        }
        """
        program = parse_program(src)
        main = program.fun("main")
        assert _codes(check_zero_bound_calls(main)) == ["RPA203"]

    def test_rpa001_no_parse(self):
        report = lint_source("fun main( {", path="broken.twr")
        assert _codes(report.diagnostics) == ["RPA001"]
        assert report.errors
        assert report.exit_code() == 1

    def test_rpa001_non_ascii_digit(self):
        # ``²`` passes ``str.isdigit`` but is no integer literal: a lex
        # finding, not a crash out of ``int()``
        src = "fun main(x: uint) -> uint {\n  let y <- x + \u00b2;\n  return y;\n}\n"
        report = lint_source(src)
        assert _codes(report.diagnostics) == ["RPA001"]
        assert report.exit_code() == 1

    def test_rpa002_unknown_entry(self, length_source):
        report = lint_source(length_source, entry="nope")
        assert _codes(report.diagnostics) == ["RPA002"]


class TestEndToEnd:
    def test_pick_entry_prefers_main(self):
        src = "fun helper(x: uint) -> uint { return x; }"
        assert pick_entry(parse_program(src)) == "helper"
        two = src + "\nfun main(x: uint) -> uint { return x; }"
        assert pick_entry(parse_program(two)) == "main"

    def test_lint_source_defaults_size_for_sized_entry(self, length_source):
        report = lint_source(length_source, entry="length")
        assert report.size == DEFAULT_LINT_SIZE
        assert not report.errors

    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_table1_is_error_clean(self, name):
        """Every Table-1 benchmark lints without error-severity findings
        (infos such as the guarded-XOR idiom are expected and allowed)."""
        size = None if is_unsized(name) else DEFAULT_LINT_SIZE
        report = lint_source(
            get_source(name), entry=get_entry(name), size=size
        )
        assert not report.errors, [d.row() for d in report.errors]

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_lint_stable_under_presets(self, length_source, preset):
        """No optimization preset may introduce an error-severity core
        finding into a program whose reference lowering is clean."""
        program = parse_program(length_source)
        lowered = lower_entry(program, "length", 3)
        assert lint_core_stmt(lowered.stmt) == []
        rewritten = rewrite_ir(
            resolve_pipeline(preset), lowered.stmt, lowered.table,
            lowered.param_types,
        )
        assert lint_core_stmt(rewritten) == []
