"""Tests for Spire's program-level optimizations (Section 6)."""

import pytest

from repro.compiler import compile_source
from repro.config import CompilerConfig
from repro.ir import (
    Assign,
    AtomE,
    BinOp,
    BoolV,
    Hadamard,
    If,
    Lit,
    Seq,
    UIntV,
    Var,
    With,
    check_program,
    run_program,
    seq,
)
from repro.opt import flatten_only, narrow_only, spire_optimize
from repro.types import BOOL, UINT, TypeTable

CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=5)


def assign(name, n=1):
    return Assign(name, AtomE(Lit(UIntV(n))))


class TestFlatteningRule:
    def test_nested_if_becomes_with_and(self):
        s = If("x", If("y", assign("z")))
        out = spire_optimize(s)
        assert isinstance(out, With)
        setup = out.setup
        assert isinstance(setup, Assign)
        assert setup.expr == BinOp("&&", Var("x"), Var("y"))
        inner = out.body
        assert isinstance(inner, If)
        assert inner.cond == setup.name

    def test_triple_nesting_flattens_completely(self):
        s = If("a", If("b", If("c", assign("z"))))
        out = spire_optimize(s)

        # after optimization no if is directly inside another if
        def max_if_depth(stmt, depth=0):
            if isinstance(stmt, If):
                depth += 1
                return max_if_depth(stmt.body, depth)
            if isinstance(stmt, Seq):
                return max(max_if_depth(sub, depth) for sub in stmt.stmts)
            if isinstance(stmt, With):
                return max(
                    max_if_depth(stmt.setup, depth), max_if_depth(stmt.body, depth)
                )
            return depth

        assert max_if_depth(out) == 1

    def test_if_distributes_over_seq(self):
        s = If("x", seq(assign("a"), assign("b")))
        out = spire_optimize(s)
        assert isinstance(out, Seq)
        assert all(isinstance(sub, If) for sub in out.stmts)

    def test_fresh_names_avoid_collisions(self):
        s = seq(
            Assign("%cf1", AtomE(Lit(BoolV(True)))),
            If("x", If("y", assign("z"))),
        )
        out = spire_optimize(s)
        names = [node.name for node in out.walk() if isinstance(node, Assign)]
        assert len(names) == len(set(names))


class TestNarrowingRule:
    def test_with_moves_out_of_if(self):
        s = If("x", With(assign("t"), assign("z")))
        out = narrow_only(s)
        assert isinstance(out, With)
        assert out.setup == assign("t")  # unconditionally executed
        assert isinstance(out.body, If)

    def test_narrow_alone_keeps_nested_ifs(self):
        s = If("x", If("y", assign("z")))
        out = narrow_only(s)
        assert isinstance(out, If)
        assert isinstance(out.body, If)


class TestFlattenOnly:
    def test_with_under_if_keeps_controls(self):
        s = If("x", With(assign("t"), If("y", assign("z"))))
        out = flatten_only(s)
        # the with's setup must still be guarded by x (no narrowing)
        assert isinstance(out, With)
        assert isinstance(out.setup, If) and out.setup.cond == "x"


class TestSemanticPreservation:
    """Theorems 6.3 and 6.5, checked by interpretation."""

    def make_table(self):
        table = TypeTable(CFG)
        return table

    @pytest.mark.parametrize("optimize", [spire_optimize, flatten_only, narrow_only])
    @pytest.mark.parametrize("bits", range(8))
    def test_figure3_program(self, optimize, bits):
        # the paper's Figure 3: nested ifs over x, y, z
        x, y, z = bits & 1, (bits >> 1) & 1, (bits >> 2) & 1
        body = If(
            "x",
            If(
                "y",
                With(
                    Assign("t", AtomE(Var("z"))),
                    If(
                        "z",
                        seq(
                            Assign("a", BinOp("!=", Var("t"), Lit(BoolV(True)))),
                            Assign("b", AtomE(Lit(BoolV(True)))),
                        ),
                    ),
                ),
            ),
        )
        table = self.make_table()
        inputs = {"x": x, "y": y, "z": z}
        input_types = {"x": BOOL, "y": BOOL, "z": BOOL}
        check_program(body, table, input_types)
        optimized = optimize(body)
        check_program(optimized, table, input_types, relaxed=True)
        m1 = run_program(body, table, dict(inputs), dict(input_types))
        m2 = run_program(optimized, table, dict(inputs), dict(input_types))
        shared = {"x", "y", "z", "a", "b"}
        for name in shared:
            assert m1.registers.get(name, 0) == m2.registers.get(name, 0), name
        # every temporary of the optimized program is restored to zero
        for name, value in m2.registers.items():
            if name not in shared:
                assert value == 0, name

    @pytest.mark.parametrize("optimization", ["spire", "flatten", "narrow"])
    def test_length_circuit_equivalence(self, length_source, optimization):
        from repro.benchsuite import HeapImage
        from repro.circuit import classical_sim

        heap = HeapImage(CFG)
        head = heap.add_list([1, 2])
        baseline = None
        for opt in ("none", optimization):
            cp = compile_source(length_source, "length", size=4, config=CFG, optimization=opt)
            inputs = {"xs": head, "acc": 0}
            inputs.update(heap.as_registers())
            out = classical_sim.run_on_registers(cp.circuit, inputs)
            value = out[cp.return_var]
            baseline = value if baseline is None else baseline
            assert value == baseline == 2


class TestCostEffect:
    """Theorem 6.1: flattening turns O(kn) into O(k+n)."""

    def test_flattening_reduces_deep_nesting_cost(self):
        body = assign("z", 7)
        nested = body
        for name in ("a", "b", "c", "d", "e"):
            nested = If(name, nested)
        from repro.cost import ExactCostModel

        table = TypeTable(CFG)
        var_types = {n: BOOL for n in "abcde"}
        var_types.update({"z": UINT})
        optimized = spire_optimize(nested)
        from repro.ir import check_program

        var_types2 = check_program(
            optimized, table, var_types, relaxed=True
        ).types
        before = ExactCostModel(table, var_types).t_complexity(nested)
        after = ExactCostModel(table, var_types2).t_complexity(optimized)
        assert after < before

    def test_hadamard_under_if_is_preserved(self):
        s = If("x", Hadamard("h"))
        out = spire_optimize(s)
        assert out == If("x", Hadamard("h"))
