"""The core-IR pretty printer: the value spellings plain Tower source
lacks, decorated names and nested blocks, asserted on the rendered text."""

from repro.ir.core import (
    Assign,
    AtomE,
    BinOp,
    BoolV,
    Hadamard,
    If,
    Lit,
    Pair,
    Proj,
    PtrV,
    TupleV,
    UIntV,
    UnAssign,
    UnitV,
    UnOp,
    Var,
    With,
    seq,
)
from repro.ir.pretty import pretty, render_expr, render_value
from repro.types import UINT, PtrT, TupleT


class TestValueSpellings:
    """The typed value spellings that plain Tower source cannot express."""

    def test_typed_null(self):
        value = PtrV(0, TupleT(UINT, PtrT(UINT)))
        assert render_value(value) == "null<(uint, ptr<uint>)>"

    def test_nonzero_pointer(self):
        assert render_value(PtrV(3, UINT)) == "ptr<uint>[3]"

    def test_tuple_value_distinct_from_pair_expr(self):
        value = Lit(TupleV(UIntV(1), UIntV(2)))
        pair = Pair(Lit(UIntV(1)), Lit(UIntV(2)))
        assert render_expr(AtomE(value)) == "#(1, 2)"
        assert render_expr(pair) == "(1, 2)"

    def test_unit_and_bool(self):
        assert render_value(UnitV()) == "()"
        assert render_value(BoolV(True)) == "true"

    def test_operator_expressions(self):
        exprs = [
            UnOp("not", Var("a")),
            UnOp("test", Var("p$1")),
            BinOp("<", Var("x"), Lit(UIntV(3))),
            BinOp("&&", Var("a"), Var("b")),
            Proj(2, Var("%t4")),
        ]
        assert [render_expr(e) for e in exprs] == [
            "not a", "test p$1", "x < 3", "a && b", "%t4.2"
        ]


def test_decorated_names_render_verbatim():
    expr = BinOp("+", Var("out$2_7"), Lit(UIntV(1)))
    stmt = seq(Assign("%t1", expr), UnAssign("%t1", expr))
    assert pretty(stmt) == "let %t1 <- out$2_7 + 1;\nlet %t1 -> out$2_7 + 1;"


def test_nested_blocks_indent_one_level_each():
    stmt = With(Assign("c", AtomE(Lit(BoolV(True)))), If("c", Hadamard("x")))
    assert pretty(stmt) == (
        "with {\n  let c <- true;\n} do {\n  if c {\n    H(x);\n  }\n}"
    )
