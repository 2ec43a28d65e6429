"""Tests for the core IR type system (Γ ⊢ s ⊣ Γ′)."""

import pytest

from repro.config import CompilerConfig
from repro.errors import TypeCheckError
from repro.ir import (
    Assign,
    AtomE,
    BinOp,
    BoolV,
    Hadamard,
    If,
    Lit,
    MemSwap,
    Pair,
    Proj,
    PtrV,
    Swap,
    UIntV,
    UnAssign,
    UnOp,
    Var,
    With,
    check_program,
    seq,
)
from repro.types import BOOL, UINT, NamedT, PtrT, TupleT, TypeTable


@pytest.fixture
def table():
    t = TypeTable(CompilerConfig(word_width=4, addr_width=3, heap_cells=5))
    t.declare("list", TupleT(UINT, PtrT(NamedT("list"))))
    return t


def lit(n):
    return AtomE(Lit(UIntV(n)))


class TestAssign:
    def test_simple_assign(self, table):
        ctx = check_program(Assign("x", lit(1)), table)
        assert "x" in ctx.vars

    def test_redeclaration_same_type_ok(self, table):
        s = seq(Assign("x", lit(1)), Assign("x", lit(2)))
        check_program(s, table)

    def test_redeclaration_new_type_rejected(self, table):
        s = seq(Assign("x", lit(1)), Assign("x", AtomE(Lit(BoolV(True)))))
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_self_reference_rejected(self, table):
        s = seq(Assign("x", lit(1)), Assign("x", BinOp("+", Var("x"), Lit(UIntV(1)))))
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_unassign_removes_binding(self, table):
        s = seq(Assign("x", lit(1)), UnAssign("x", lit(1)))
        ctx = check_program(s, table)
        assert "x" not in ctx.vars

    def test_unassign_wrong_type_rejected(self, table):
        s = seq(Assign("x", lit(1)), UnAssign("x", AtomE(Lit(BoolV(False)))))
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_unassign_unbound_rejected(self, table):
        with pytest.raises(TypeCheckError):
            check_program(UnAssign("x", lit(1)), table)


class TestExpressions:
    def test_projection_types(self, table):
        s = seq(
            Assign("t", Pair(Lit(UIntV(1)), Lit(BoolV(True)))),
            Assign("a", Proj(1, Var("t"))),
            Assign("b", Proj(2, Var("t"))),
        )
        ctx = check_program(s, table)
        assert table.equal(ctx.vars["a"], UINT)
        assert table.equal(ctx.vars["b"], BOOL)

    def test_projection_from_non_tuple_rejected(self, table):
        s = seq(Assign("x", lit(1)), Assign("y", Proj(1, Var("x"))))
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_not_requires_bool(self, table):
        s = seq(Assign("x", lit(1)), Assign("y", UnOp("not", Var("x"))))
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_test_requires_uint_or_ptr(self, table):
        s = seq(
            Assign("b", AtomE(Lit(BoolV(True)))),
            Assign("y", UnOp("test", Var("b"))),
        )
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_arith_requires_uints(self, table):
        s = seq(
            Assign("b", AtomE(Lit(BoolV(True)))),
            Assign("y", BinOp("+", Var("b"), Var("b"))),
        )
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_pointers_not_ordered(self, table):
        s = seq(
            Assign("p", AtomE(Lit(PtrV(0, NamedT("list"))))),
            Assign("y", BinOp("<", Var("p"), Var("p"))),
        )
        with pytest.raises(TypeCheckError):
            check_program(s, table)


class TestControlFlow:
    def test_if_requires_bool_condition(self, table):
        s = seq(Assign("x", lit(1)), If("x", Hadamard("x")))
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_if_body_must_not_modify_condition(self, table):
        s = seq(
            Assign("c", AtomE(Lit(BoolV(True)))),
            If("c", Assign("c", AtomE(Lit(BoolV(True))))),
        )
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_if_body_unassigning_outer_var_rejected(self, table):
        s = seq(
            Assign("c", AtomE(Lit(BoolV(True)))),
            Assign("x", lit(1)),
            If("c", UnAssign("x", lit(1))),
        )
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_if_body_unassigning_outer_var_ok_when_relaxed(self, table):
        s = seq(
            Assign("c", AtomE(Lit(BoolV(True)))),
            Assign("x", lit(1)),
            If("c", UnAssign("x", lit(1))),
        )
        check_program(s, table, relaxed=True)

    def test_with_restores_domain(self, table):
        s = With(Assign("t", lit(1)), Assign("y", AtomE(Var("t"))))
        ctx = check_program(s, table)
        assert "t" not in ctx.vars
        assert "y" in ctx.vars

    def test_guarded_redeclaration_pattern(self, table):
        # with { fu <- 0; if g { fu <- 1 } } do { ... } — the reversal
        # un-assigns fu twice (multi-binding context).
        s = seq(
            Assign("g", AtomE(Lit(BoolV(True)))),
            With(
                seq(Assign("fu", lit(0)), If("g", Assign("fu", lit(1)))),
                Skip_like(),
            ),
        )
        check_program(s, table)


def Skip_like():
    from repro.ir import Skip

    return Skip()


class TestDataStatements:
    def test_swap_same_variable_rejected(self, table):
        s = seq(Assign("x", lit(1)), Swap("x", "x"))
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_swap_type_mismatch_rejected(self, table):
        s = seq(
            Assign("x", lit(1)),
            Assign("b", AtomE(Lit(BoolV(True)))),
            Swap("x", "b"),
        )
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_memswap_requires_pointer(self, table):
        s = seq(Assign("x", lit(1)), Assign("v", lit(0)), MemSwap("x", "v"))
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_memswap_element_type_must_match(self, table):
        s = seq(
            Assign("p", AtomE(Lit(PtrV(1, NamedT("list"))))),
            Assign("v", lit(0)),
            MemSwap("p", "v"),
        )
        with pytest.raises(TypeCheckError):
            check_program(s, table)

    def test_hadamard_requires_bool(self, table):
        s = seq(Assign("x", lit(1)), Hadamard("x"))
        with pytest.raises(TypeCheckError):
            check_program(s, table)


class TestCheckedTypes:
    """The check's context types every name the program binds."""

    def test_collects_all_variables(self, table):
        # t's scope closes with the with, but its register still needs a width
        s = With(Assign("t", lit(1)), Assign("y", AtomE(Var("t"))))
        ctx = check_program(s, table)
        assert ctx.types == {"t": UINT, "y": UINT}
        assert set(ctx.vars) == {"y"}

    def test_includes_inputs(self, table):
        ctx = check_program(Assign("y", AtomE(Var("x"))), table, {"x": UINT})
        assert ctx.types == {"x": UINT, "y": UINT}

    def test_name_bound_at_a_second_type_after_its_scope_closed(self, table):
        # t is live only inside the with; re-binding it afterwards at another
        # type would give one register two widths
        s = seq(
            With(Assign("t", lit(1)), Assign("y", AtomE(Var("t")))),
            Assign("t", AtomE(Lit(BoolV(True)))),
        )
        with pytest.raises(TypeCheckError, match="'t' used at two types"):
            check_program(s, table)
        with pytest.raises(TypeCheckError, match="'t' used at two types"):
            check_program(s, table, relaxed=True)

    def test_name_bound_again_at_its_type_after_its_scope_closed(self, table):
        s = seq(
            With(Assign("t", lit(1)), Assign("y", AtomE(Var("t")))),
            Assign("t", lit(2)),
        )
        assert check_program(s, table).types == {"t": UINT, "y": UINT}
