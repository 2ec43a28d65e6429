"""Pretty-printing of core IR statements as Tower-like text.

:func:`pretty` renders a statement tree one statement per line with nested
braces.

The text is the core IR of Figure 13 with three value spellings that
plain Tower source lacks, because core literals carry information surface
syntax infers from context:

* ``null<τ>`` — a typed null pointer (``PtrV(0, τ)``);
* ``ptr<τ>[a]`` — a non-null pointer literal;
* ``#(v1, v2)`` — a tuple *value* (distinct from the pair *expression*
  ``(x1, x2)``, whose components are atoms).

Identifiers keep the desugarer's decorations (``%t1``, ``out$2``).
"""

from __future__ import annotations

from ..errors import ParseError
from ..types import Type
from .core import (
    Assign,
    Atom,
    AtomE,
    BinOp,
    BoolV,
    Expr,
    Hadamard,
    If,
    Lit,
    MemSwap,
    Pair,
    Proj,
    PtrV,
    Seq,
    Skip,
    Stmt,
    Swap,
    TupleV,
    UIntV,
    UnAssign,
    UnitV,
    UnOp,
    Value,
    Var,
    With,
)

_INDENT = "  "


# ---------------------------------------------------------------- rendering
def render_type(ty: Type) -> str:
    """A type in the pretty grammar (``Type.__str__``'s surface spelling)."""
    return str(ty)


def render_value(value: Value) -> str:
    """A value literal in the pretty grammar."""
    if isinstance(value, UnitV):
        return "()"
    if isinstance(value, UIntV):
        return str(value.value)
    if isinstance(value, BoolV):
        return "true" if value.value else "false"
    if isinstance(value, PtrV):
        if value.addr == 0:
            return f"null<{render_type(value.elem)}>"
        return f"ptr<{render_type(value.elem)}>[{value.addr}]"
    if isinstance(value, TupleV):
        return f"#({render_value(value.first)}, {render_value(value.second)})"
    raise ParseError(f"cannot render value {value!r}")  # pragma: no cover


def render_atom(atom: Atom) -> str:
    if isinstance(atom, Var):
        return atom.name
    if isinstance(atom, Lit):
        return render_value(atom.value)
    raise ParseError(f"cannot render atom {atom!r}")  # pragma: no cover


def render_expr(expr: Expr) -> str:
    """An expression in the pretty grammar (atoms only, no nesting)."""
    if isinstance(expr, AtomE):
        return render_atom(expr.atom)
    if isinstance(expr, Pair):
        return f"({render_atom(expr.first)}, {render_atom(expr.second)})"
    if isinstance(expr, Proj):
        return f"{render_atom(expr.atom)}.{expr.index}"
    if isinstance(expr, UnOp):
        return f"{expr.op} {render_atom(expr.atom)}"
    if isinstance(expr, BinOp):
        return f"{render_atom(expr.left)} {expr.op} {render_atom(expr.right)}"
    raise ParseError(f"cannot render expression {expr!r}")  # pragma: no cover


def pretty(stmt: Stmt, indent: int = 0) -> str:
    """Render a statement with one statement per line and nested braces."""
    pad = _INDENT * indent
    if isinstance(stmt, Skip):
        return f"{pad}skip;"
    if isinstance(stmt, Seq):
        return "\n".join(pretty(s, indent) for s in stmt.stmts)
    if isinstance(stmt, Assign):
        return f"{pad}let {stmt.name} <- {render_expr(stmt.expr)};"
    if isinstance(stmt, UnAssign):
        return f"{pad}let {stmt.name} -> {render_expr(stmt.expr)};"
    if isinstance(stmt, Hadamard):
        return f"{pad}H({stmt.name});"
    if isinstance(stmt, Swap):
        return f"{pad}{stmt.left} <-> {stmt.right};"
    if isinstance(stmt, MemSwap):
        return f"{pad}*{stmt.pointer} <-> {stmt.value};"
    if isinstance(stmt, If):
        body = pretty(stmt.body, indent + 1)
        return f"{pad}if {stmt.cond} {{\n{body}\n{pad}}}"
    if isinstance(stmt, With):
        setup = pretty(stmt.setup, indent + 1)
        body = pretty(stmt.body, indent + 1)
        return f"{pad}with {{\n{setup}\n{pad}}} do {{\n{body}\n{pad}}}"
    raise ValueError(f"unknown statement {stmt!r}")  # pragma: no cover
