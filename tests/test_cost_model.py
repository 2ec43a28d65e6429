"""Cost-model tests: exact soundness (Theorems 5.1/5.2) and the paper model."""

import sys
import threading
from collections import Counter

import pytest

import repro.cost.exact as exact_mod
from repro.benchsuite.programs import SOURCES, get_entry, is_unsized
from repro.circuit.gates import reset_shared_gates
from repro.compiler import compile_source
from repro.config import CompilerConfig
from repro.cost import (
    C_T_CTRL,
    ControlProfile,
    ExactCostModel,
    PaperCostModel,
    exact_counts,
    fit_report,
    predicted_counts,
    t_mcx,
)
from repro.ir import Assign, AtomE, BinOp, BoolV, Hadamard, If, Lit, UIntV, Var, seq

CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=5)


class TestControlProfile:
    def test_shift_models_if(self):
        profile = ControlProfile()
        profile.mcx[1] = 4
        shifted = profile.shifted(1)
        assert shifted.mcx == {2: 4}

    def test_t_complexity_uses_figure_5_6(self):
        profile = ControlProfile()
        profile.mcx[3] = 2
        assert profile.t_complexity() == 2 * t_mcx(3) == 2 * 21

    def test_addition_and_scaling(self):
        a = ControlProfile()
        a.mcx[1] = 1
        b = ControlProfile()
        b.mcx[1] = 2
        b.h[0] = 1
        total = a + b.scaled(3)
        assert total.mcx == {1: 7}
        assert total.h == {0: 3}
        assert total.mcx_complexity() == 10


class TestExactSoundness:
    """exact model == compiled circuit, as equalities (Theorems 5.1/5.2)."""

    @pytest.mark.parametrize("optimization", ["none", "spire", "flatten", "narrow"])
    @pytest.mark.parametrize("depth", [2, 3])
    def test_length(self, length_source, optimization, depth):
        cp = compile_source(
            length_source, "length", size=depth, config=CFG, optimization=optimization
        )
        mcx, t = exact_counts(cp.core, cp.table, cp.var_types, cp.cell_bits)
        assert mcx == cp.mcx_complexity()
        assert t == cp.t_complexity()

    def test_hadamard_program(self):
        src = """
        fun main(c: bool, x: bool) -> bool {
          if c { H(x); }
          let y <- x;
          return y;
        }
        """
        cp = compile_source(src, "main", config=CFG)
        mcx, t = exact_counts(cp.core, cp.table, cp.var_types, cp.cell_bits)
        assert mcx == cp.mcx_complexity()
        assert t == cp.t_complexity()

    def test_deeply_nested_ifs(self):
        src = """
        fun main(a: bool, b: bool, c: bool, x: uint, y: uint) -> uint {
          if a { if b { if c { let z <- x * y; } } }
          return z;
        }
        """
        cp = compile_source(src, "main", config=CFG)
        mcx, t = exact_counts(cp.core, cp.table, cp.var_types, cp.cell_bits)
        assert (mcx, t) == (cp.mcx_complexity(), cp.t_complexity())


class TestPaperModelEquations:
    """The Section 5 equations on hand-built IR."""

    def model(self):
        from repro.types import TypeTable, BOOL, UINT

        table = TypeTable(CFG)
        var_types = {"x": BOOL, "y": BOOL, "a": UINT, "b": UINT, "z": UINT, "w": BOOL}
        return PaperCostModel(table, var_types), table

    def test_if_over_constant_assignment_is_free(self):
        model, _ = self.model()
        s = If("x", Assign("z", AtomE(Lit(UIntV(7)))))
        assert model.c_t(s) == 0

    def test_double_if_over_constant_assignment_costs(self):
        model, _ = self.model()
        inner = Assign("z", AtomE(Lit(UIntV(7))))
        s = If("x", If("y", inner))
        c_mcx = model.c_mcx(inner)
        assert model.c_t(s) == C_T_CTRL * c_mcx

    def test_controlled_hadamard_constant(self):
        model, _ = self.model()
        assert model.c_t(If("x", Hadamard("w"))) == model.c_t_ch
        assert model.c_t(Hadamard("w")) == 0

    def test_if_distributes_over_seq(self):
        model, _ = self.model()
        s1 = Assign("z", BinOp("+", Var("a"), Var("b")))
        s2 = Assign("z", BinOp("*", Var("a"), Var("b")))
        combined = model.c_t(If("x", seq(s1, s2)))
        assert combined == model.c_t(If("x", s1)) + model.c_t(If("x", s2))

    def test_control_cost_rule(self):
        model, _ = self.model()
        s = Assign("z", BinOp("+", Var("a"), Var("b")))
        assert model.c_t(If("x", s)) == C_T_CTRL * model.c_mcx(s) + model.c_t(s)

    def test_mcx_complexity_if_transparent(self):
        model, _ = self.model()
        s = Assign("z", BinOp("+", Var("a"), Var("b")))
        assert model.c_mcx(If("x", s)) == model.c_mcx(s)


class TestAsymptoticPrediction:
    """RQ1: predicted and empirical degrees agree (Section 8.1 method)."""

    def test_length_t_degree_before_and_after(self, length_source):
        depths = [2, 3, 4, 5, 6]
        emp_none, emp_spire, pred_none, pred_spire = [], [], [], []
        for d in depths:
            for opt, emp, pred in (
                ("none", emp_none, pred_none),
                ("spire", emp_spire, pred_spire),
            ):
                cp = compile_source(length_source, "length", size=d, config=CFG, optimization=opt)
                emp.append(cp.t_complexity())
                model = PaperCostModel(cp.table, cp.var_types, cp.cell_bits)
                pred.append(model.c_t(cp.core))
        assert fit_report(depths, emp_none).degree == 2
        assert fit_report(depths, pred_none).degree == 2
        assert fit_report(depths, emp_spire).degree == 1
        assert fit_report(depths, pred_spire).degree == 1

    def test_length_mcx_is_linear(self, length_source):
        depths = [2, 3, 4, 5]
        mcx = []
        for d in depths:
            cp = compile_source(length_source, "length", size=d, config=CFG)
            mcx.append(cp.mcx_complexity())
        assert fit_report(depths, mcx).degree == 1



@pytest.fixture(scope="module")
def table1():
    """Every Table 1 program at depth 2, compiled without IR passes."""
    return {
        name: compile_source(
            SOURCES[name], get_entry(name), None if is_unsized(name) else 2, CFG
        )
        for name in sorted(SOURCES)
    }


def price(programs):
    """(MCX, T) of each program by the paper model, each with a new model."""
    reports = [
        predicted_counts(cp.core, cp.table, cp.var_types, cp.cell_bits)
        for cp in programs
    ]
    return [(report.mcx, report.t) for report in reports]


class TestProfileTable:
    """Primitive profiles are shared by every model in the process."""

    def test_bounded_table_gives_the_same_predictions(self, table1, monkeypatch):
        reset_shared_gates()
        unbounded = price(table1.values())
        assert len(exact_mod._PROFILES) > 4
        reset_shared_gates()
        monkeypatch.setattr(exact_mod, "PROFILES_MAX", 4)
        assert price(table1.values()) == unbounded
        assert len(exact_mod._PROFILES) <= 4

    def test_reset_empties_the_table(self, table1):
        price([table1["length"]])
        assert exact_mod._PROFILES
        reset_shared_gates()
        assert not exact_mod._PROFILES

    def test_a_shared_shape_is_lowered_once(self, table1, monkeypatch):
        lowered = Counter()
        real = ExactCostModel._lower_primitive

        def counting(model, stmt):
            lowered[model._key(stmt)] += 1
            return real(model, stmt)

        monkeypatch.setattr(ExactCostModel, "_lower_primitive", counting)
        shapes = {}
        for name in ("length", "sum"):
            reset_shared_gates()
            lowered.clear()
            price([table1[name]])
            shapes[name] = set(lowered)
        shared = shapes["length"] & shapes["sum"]
        assert shared
        reset_shared_gates()
        lowered.clear()
        price([table1["length"], table1["sum"]])
        assert lowered == Counter(shapes["length"] | shapes["sum"])

    def test_threads_price_as_one_thread(self, table1, monkeypatch):
        """More threads than cores, switching often, over a table small
        enough to fill and clear under them."""
        reset_shared_gates()
        expected = price(table1.values())
        reset_shared_gates()
        monkeypatch.setattr(exact_mod, "PROFILES_MAX", 4)
        results = [None] * 4

        def run(slot):
            results[slot] = price(table1.values())

        threads = [threading.Thread(target=run, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert results == [expected] * 4
        assert len(exact_mod._PROFILES) <= 4
