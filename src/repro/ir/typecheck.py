"""Well-formation of core IR statements: the judgment ``Γ ⊢ s ⊣ Γ′``.

Implements Figures 18–20 (Appendix B.1) with the paper's two extensions:

* a variable may be re-declared in the same scope (its register content
  becomes the XOR of old and new values) — rule S-Assign therefore allows an
  existing binding as long as the type matches;
* ``H(x)`` requires ``x : bool`` and leaves the context unchanged.

The context Γ is a mapping from variable names to types.  The paper's
ordered-context shadowing discipline is unnecessary here because the
frontend alpha-renames all binders; re-declaration at the *same* type is the
only form of name reuse that reaches the core IR.  A name therefore has one
type for the whole program, even after its scope closes: binding it at
another type is an error.

The check is the compiler's only typing walk.  The context that
:func:`check_program` returns types every name the program binds, inputs
included (:attr:`Context.types`), so register allocation and the cost
model read their widths from the check that already ran.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..errors import TypeCheckError
from ..types import (
    BOOL,
    UINT,
    BoolT,
    PtrT,
    TupleT,
    Type,
    TypeTable,
    UIntT,
)
from .core import (
    ARITH_OPS,
    COMPARISON_OPS,
    LOGIC_OPS,
    Assign,
    Atom,
    AtomE,
    BinOp,
    Expr,
    Hadamard,
    If,
    Lit,
    MemSwap,
    Pair,
    Proj,
    Seq,
    Skip,
    Stmt,
    Swap,
    UnAssign,
    UnOp,
    Var,
    With,
)


@dataclass
class Context:
    """A typing context Γ (mutable during checking; copy to fork).

    The paper's Γ is ordered and permits multiple bindings of one variable
    (Appendix B.1); since re-declaration requires the same type here,
    ``counts`` tracks the number of live bindings per name — the reverse of
    a guarded re-declaration un-assigns a name as many times as it was
    declared.  ``types`` keeps the type of every name ever bound, live or
    not.
    """

    table: TypeTable
    vars: Dict[str, Type] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    types: Dict[str, Type] = field(default_factory=dict)

    def lookup(self, name: str) -> Type:
        if name not in self.vars:
            raise TypeCheckError(f"unbound variable {name!r}")
        return self.vars[name]

    def bind(self, name: str, ty: Type) -> None:
        known = self.types.get(name)
        if known is not None and known is not ty:
            if not self.table.equal(known, ty):
                raise TypeCheckError(
                    f"{name!r} used at two types: {known} and {ty}"
                )
        self.types[name] = ty
        self.vars[name] = ty
        self.counts[name] = self.counts.get(name, 0) + 1

    def unbind(self, name: str) -> None:
        count = self.counts.get(name, 0)
        if count <= 1:
            self.vars.pop(name, None)
            self.counts.pop(name, None)
        else:
            self.counts[name] = count - 1

    def copy(self) -> "Context":
        return Context(
            self.table, dict(self.vars), dict(self.counts), dict(self.types)
        )


def type_of_atom(ctx: Context, atom: Atom) -> Type:
    """Typing of values and variables (Figure 18)."""
    if isinstance(atom, Var):
        return ctx.lookup(atom.name)
    if isinstance(atom, Lit):
        return atom.value.type_of()
    raise TypeCheckError(f"unknown atom {atom!r}")  # pragma: no cover


def type_of_expr(ctx: Context, expr: Expr) -> Type:
    """Typing of expressions (Figure 19)."""
    table = ctx.table
    if isinstance(expr, AtomE):
        return type_of_atom(ctx, expr.atom)
    if isinstance(expr, Pair):
        return TupleT(type_of_atom(ctx, expr.first), type_of_atom(ctx, expr.second))
    if isinstance(expr, Proj):
        ty = table.resolve(type_of_atom(ctx, expr.atom))
        if not isinstance(ty, TupleT):
            raise TypeCheckError(f"projection from non-tuple {ty}")
        return ty.first if expr.index == 1 else ty.second
    if isinstance(expr, UnOp):
        ty = table.resolve(type_of_atom(ctx, expr.atom))
        if expr.op == "not":
            if not isinstance(ty, BoolT):
                raise TypeCheckError(f"'not' needs bool, got {ty}")
            return BOOL
        if expr.op == "test":
            if not isinstance(ty, (UIntT, PtrT)):
                raise TypeCheckError(f"'test' needs uint or ptr, got {ty}")
            return BOOL
        raise TypeCheckError(f"unknown unary op {expr.op!r}")  # pragma: no cover
    if isinstance(expr, BinOp):
        lty = table.resolve(type_of_atom(ctx, expr.left))
        rty = table.resolve(type_of_atom(ctx, expr.right))
        if expr.op in LOGIC_OPS:
            if not (isinstance(lty, BoolT) and isinstance(rty, BoolT)):
                raise TypeCheckError(f"{expr.op!r} needs bool operands")
            return BOOL
        if expr.op in ARITH_OPS:
            if not (isinstance(lty, UIntT) and isinstance(rty, UIntT)):
                raise TypeCheckError(f"{expr.op!r} needs uint operands")
            return UINT
        if expr.op in COMPARISON_OPS:
            if isinstance(lty, PtrT) and isinstance(rty, PtrT):
                if expr.op in ("<", ">"):
                    raise TypeCheckError("pointers are not ordered")
                return BOOL
            if isinstance(lty, UIntT) and isinstance(rty, UIntT):
                return BOOL
            if isinstance(lty, BoolT) and isinstance(rty, BoolT):
                if expr.op in ("<", ">"):
                    raise TypeCheckError("bools are not ordered")
                return BOOL
            raise TypeCheckError(
                f"{expr.op!r} needs matching uint/ptr/bool operands, got {lty} and {rty}"
            )
        raise TypeCheckError(f"unknown binary op {expr.op!r}")  # pragma: no cover
    raise TypeCheckError(f"unknown expression {expr!r}")  # pragma: no cover


def _check_no_alias(name: str, expr: Expr) -> None:
    """Reject ``x ← e`` where ``e`` reads ``x``: the map ``x ↦ x ⊕ e(x)``
    is not a permutation in general, so such statements are irreversible."""
    for atom in expr.atoms():
        if isinstance(atom, Var) and atom.name == name:
            raise TypeCheckError(
                f"assignment of {name!r} reads its own target (irreversible)"
            )


def check_stmt(ctx: Context, stmt: Stmt, relaxed: bool = False) -> Context:
    """Check ``Γ ⊢ s ⊣ Γ′`` (Figure 20), returning the updated context.

    The input context is not mutated.  ``relaxed=True`` skips the S-If
    domain condition, which compiler-generated rewrites (if-over-sequence
    distribution, with-reversals) violate syntactically while remaining
    sound; user-written programs are checked strictly.
    """
    return _check(ctx.copy(), stmt, relaxed)


def _check(ctx: Context, stmt: Stmt, relaxed: bool = False) -> Context:
    table = ctx.table
    if isinstance(stmt, Skip):
        return ctx
    if isinstance(stmt, Seq):
        for sub in stmt.stmts:
            ctx = _check(ctx, sub, relaxed)
        return ctx
    if isinstance(stmt, Assign):
        _check_no_alias(stmt.name, stmt.expr)
        ty = type_of_expr(ctx, stmt.expr)
        if stmt.name in ctx.vars:
            # re-declaration: the register content becomes the XOR of old
            # and new values (Appendix B.2); types must agree.
            if not table.equal(ctx.vars[stmt.name], ty):
                raise TypeCheckError(
                    f"re-declaration of {stmt.name!r} at type {ty}, "
                    f"previously {ctx.vars[stmt.name]}"
                )
        ctx.bind(stmt.name, ty)
        return ctx
    if isinstance(stmt, UnAssign):
        _check_no_alias(stmt.name, stmt.expr)
        declared = ctx.lookup(stmt.name)
        ty = type_of_expr(ctx, stmt.expr)
        if not table.equal(declared, ty):
            raise TypeCheckError(
                f"un-assignment of {stmt.name!r} : {declared} at type {ty}"
            )
        ctx.unbind(stmt.name)
        return ctx
    if isinstance(stmt, Hadamard):
        ty = table.resolve(ctx.lookup(stmt.name))
        if not isinstance(ty, BoolT):
            raise TypeCheckError(f"H needs a bool variable, got {ty}")
        return ctx
    if isinstance(stmt, Swap):
        if stmt.left == stmt.right:
            raise TypeCheckError(f"swap of {stmt.left!r} with itself")
        lty = ctx.lookup(stmt.left)
        rty = ctx.lookup(stmt.right)
        if not table.equal(lty, rty):
            raise TypeCheckError(f"swap of {lty} with {rty}")
        return ctx
    if isinstance(stmt, MemSwap):
        if stmt.pointer == stmt.value:
            raise TypeCheckError("memory swap of a pointer with itself")
        pty = table.resolve(ctx.lookup(stmt.pointer))
        vty = ctx.lookup(stmt.value)
        if not isinstance(pty, PtrT):
            raise TypeCheckError(f"memory swap through non-pointer {pty}")
        if not table.equal(pty.elem, vty):
            raise TypeCheckError(
                f"memory swap of ptr<{pty.elem}> with value of type {vty}"
            )
        return ctx
    if isinstance(stmt, If):
        cty = table.resolve(ctx.lookup(stmt.cond))
        if not isinstance(cty, BoolT):
            raise TypeCheckError(f"if condition must be bool, got {cty}")
        from .core import free_vars

        if stmt.cond in free_vars(stmt.body):
            # stronger than the paper's x ∉ mod(s): also reject *reading*
            # the condition, which would duplicate a control qubit on the
            # compiled gates and break the exact cost model's control
            # accounting.  All paper programs satisfy this.
            raise TypeCheckError(
                f"if body mentions its own condition {stmt.cond!r}"
            )
        before = set(ctx.vars)
        ctx2 = _check(ctx, stmt.body, relaxed)
        if not relaxed and not before <= set(ctx2.vars):
            # S-If (Figure 20) requires dom Gamma <= dom Gamma'. The check is
            # skipped inside compiler-generated with-reversals, where an
            # un-declaration under `if x` mirrors a declaration made under
            # the same condition earlier (see opt.spire flatten-only mode).
            dropped = before - set(ctx2.vars)
            raise TypeCheckError(
                f"if body un-declares outer variables {sorted(dropped)}"
            )
        return ctx2
    if isinstance(stmt, With):
        ctx2 = _check(ctx, stmt.setup, relaxed)
        ctx3 = _check(ctx2, stmt.body, relaxed)
        # the reverse of the setup must also check; it un-declares the
        # setup's variables, restoring (at least) the original domain.
        from .reverse import reverse

        return _check(ctx3, reverse(stmt.setup), relaxed=True)
    raise TypeCheckError(f"unknown statement {stmt!r}")  # pragma: no cover


def check_program(
    stmt: Stmt,
    table: TypeTable,
    inputs: Optional[Dict[str, Type]] = None,
    relaxed: bool = False,
) -> Context:
    """Check a whole program given its input variable types.

    The returned context's :attr:`~Context.types` maps every name the
    program binds, inputs included, to its one type: the register width
    of every variable, including ones whose scope has closed.
    """
    inputs = dict(inputs or {})
    ctx = Context(table, dict(inputs), dict.fromkeys(inputs, 1), inputs)
    return check_stmt(ctx, stmt, relaxed)
