"""Lowering of the Tower surface language to core IR.

This stage performs everything the Tower compiler's "lower the surface AST
to the core intermediate representation" step does (Section 7):

* **inlining** — every call ``f[k](args)`` is expanded in place, with the
  recursion bound ``k`` evaluated at compile time; ``f[0]`` produces the
  zero value of the function's return type (Section 3.1: the nth instance
  "returns the length of the list xs if it is less than n, or 0 otherwise");
* **if-else** — desugared to complementary quantum ifs inside a ``with``
  that computes the negated condition (Yuan & Carbin 2022, Appendix B);
* **nested expressions** — flattened to atoms by introducing temporaries
  whose cleanup is automated by ``with``;
* **alpha renaming** — locals of every inlined instance get unique names
  (``name$k``); deliberate re-declaration of the *same* surface name within
  one function maps to the same core name, preserving the XOR-accumulation
  idiom the optimized programs of Figures 10 and 11 rely on.

The result carries the core statement, the type table and the entry
function's parameter/return information.  The desugarer types every
expression it emits (it rejects a re-declaration at another type), but the
types the compiler and the cost model read come from the Figure 20 check
of its output (:func:`repro.ir.typecheck.check_program`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..config import CompilerConfig
from ..errors import InlineError, TypeCheckError
from ..ir.core import (
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
    Stmt,
    Swap,
    UIntV,
    UnAssign,
    UnitV,
    UnOp,
    Var,
    seq,
    zero_value,
)
from ..ir.reverse import reverse
from ..ir.typecheck import Context, type_of_expr
from .ast import (
    EBin,
    EBool,
    ECall,
    EDefault,
    EInt,
    ENull,
    EPair,
    EProj,
    EUn,
    EUnit,
    EVar,
    FunDef,
    Program,
    SExpr,
    SHadamard,
    SIf,
    SLet,
    SMemSwap,
    SSkip,
    SStmt,
    SSwapS,
    SWith,
)
from ..types import PtrT, Type, TypeTable


@dataclass
class Lowered:
    """The result of lowering an entry function to core IR."""

    stmt: Stmt
    table: TypeTable
    entry: str
    size: Optional[int]
    param_types: Dict[str, Type]
    return_var: Optional[str]


class _Scope:
    """Per-function-instance name environment (surface name -> core name)."""

    def __init__(self, mapping: Dict[str, str], size_env: Dict[str, int]) -> None:
        self.names = mapping
        self.size_env = size_env


class Desugarer:
    """Single-use lowering engine for one entry-point instantiation."""

    def __init__(self, program: Program, table: TypeTable) -> None:
        self.program = program
        self.table = table
        self.types: Dict[str, Type] = {}
        self._temp_counter = 0
        self._instance_counter = 0
        self._unsized_stack: List[str] = []

    # ------------------------------------------------------------ utilities
    def fresh_temp(self) -> str:
        self._temp_counter += 1
        return f"%t{self._temp_counter}"

    def fresh_instance(self) -> int:
        self._instance_counter += 1
        return self._instance_counter

    def atom_type(self, atom: Atom) -> Type:
        ctx = Context(self.table, self.types)
        if isinstance(atom, Var):
            if atom.name not in self.types:
                raise TypeCheckError(f"unbound variable {atom.name!r}")
            return self.types[atom.name]
        return atom.value.type_of()

    def record_assign(self, name: str, expr: Expr) -> None:
        """Record/verify the type of a (re-)declared core variable."""
        ctx = Context(self.table, self.types)
        ty = type_of_expr(ctx, expr)
        if name in self.types:
            if not self.table.equal(self.types[name], ty):
                raise TypeCheckError(
                    f"variable {name!r} re-declared at type {ty}, "
                    f"previously {self.types[name]}"
                )
        else:
            self.types[name] = ty

    # ------------------------------------------------------------ expressions
    def flatten_to_expr(
        self, e: SExpr, scope: _Scope, pre: List[Stmt]
    ) -> Expr:
        """Lower a surface expression; temporaries are appended to ``pre``."""
        if isinstance(e, EInt):
            return AtomE(Lit(UIntV(e.value)))
        if isinstance(e, EBool):
            return AtomE(Lit(BoolV(e.value)))
        if isinstance(e, EUnit):
            return AtomE(Lit(UnitV()))
        if isinstance(e, ENull):
            raise TypeCheckError(
                "bare 'null' has no inferable type here; use default<ptr<T>> "
                "or compare against a pointer",
                span=e.span,
            )
        if isinstance(e, EDefault):
            return AtomE(Lit(zero_value(e.ty, self.table)))
        if isinstance(e, EVar):
            if e.name not in scope.names:
                raise TypeCheckError(
                    f"unbound variable {e.name!r}", span=e.span
                )
            return AtomE(Var(scope.names[e.name]))
        if isinstance(e, EPair):
            first = self.flatten_to_atom(e.first, scope, pre)
            second = self.flatten_to_atom(e.second, scope, pre)
            return Pair(first, second)
        if isinstance(e, EProj):
            atom = self.flatten_to_atom(e.expr, scope, pre)
            return Proj(e.index, atom)
        if isinstance(e, EUn):
            atom = self.flatten_to_atom(e.expr, scope, pre)
            return UnOp(e.op, atom)
        if isinstance(e, EBin):
            left_null = isinstance(e.left, ENull)
            right_null = isinstance(e.right, ENull)
            if left_null and right_null:
                raise TypeCheckError(
                    "cannot compare null with null", span=e.span
                )
            if left_null or right_null:
                if e.op not in ("==", "!="):
                    raise TypeCheckError(
                        f"null only supports == and !=, not {e.op!r}",
                        span=e.span,
                    )
                other = e.right if left_null else e.left
                other_atom = self.flatten_to_atom(other, scope, pre)
                other_ty = self.table.resolve(self.atom_type(other_atom))
                if not isinstance(other_ty, PtrT):
                    raise TypeCheckError(
                        f"comparison with null needs a pointer, got {other_ty}",
                        span=e.span,
                    )
                null_atom: Atom = Lit(PtrV(0, other_ty.elem))
                if left_null:
                    return BinOp(e.op, null_atom, other_atom)
                return BinOp(e.op, other_atom, null_atom)
            left = self.flatten_to_atom(e.left, scope, pre)
            right = self.flatten_to_atom(e.right, scope, pre)
            return BinOp(e.op, left, right)
        if isinstance(e, ECall):
            raise InlineError(
                "calls may only appear as the entire right-hand side of a let",
                span=e.span,
            )
        raise TypeCheckError(f"unknown expression {e!r}")  # pragma: no cover

    def flatten_to_atom(self, e: SExpr, scope: _Scope, pre: List[Stmt]) -> Atom:
        """Lower to an atom, introducing a temporary when necessary."""
        expr = self.flatten_to_expr(e, scope, pre)
        if isinstance(expr, AtomE):
            return expr.atom
        temp = self.fresh_temp()
        self.record_assign(temp, expr)
        pre.append(Assign(temp, expr))
        return Var(temp)

    # ------------------------------------------------------------ statements
    def lower_stmts(self, stmts: Tuple[SStmt, ...], scope: _Scope) -> Stmt:
        return seq(*(self.lower_stmt(s, scope) for s in stmts))

    def lower_stmt(self, s: SStmt, scope: _Scope) -> Stmt:
        if isinstance(s, SSkip):
            return seq()
        if isinstance(s, SLet):
            return self.lower_let(s, scope)
        if isinstance(s, SSwapS):
            left = self._lookup(s.left, scope, span=s.span)
            right = self._lookup(s.right, scope, span=s.span)
            return Swap(left, right)
        if isinstance(s, SMemSwap):
            pointer = self._lookup(s.pointer, scope, span=s.span)
            value = self._lookup(s.value, scope, span=s.span)
            return MemSwap(pointer, value)
        if isinstance(s, SHadamard):
            return Hadamard(self._lookup(s.name, scope, span=s.span))
        if isinstance(s, SWith):
            setup = self.lower_stmts(s.setup, scope)
            body = self.lower_stmts(s.body, scope)
            from ..ir.core import With

            return With(setup, body)
        if isinstance(s, SIf):
            return self.lower_if(s, scope)
        raise TypeCheckError(f"unknown statement {s!r}")  # pragma: no cover

    def _lookup(self, name: str, scope: _Scope, span=None) -> str:
        if name not in scope.names:
            raise TypeCheckError(f"unbound variable {name!r}", span=span)
        return scope.names[name]

    def lower_let(self, s: SLet, scope: _Scope) -> Stmt:
        # the core name: reuse on re-declaration, fresh otherwise.
        if s.name in scope.names:
            core_name = scope.names[s.name]
        else:
            if not s.forward:
                raise TypeCheckError(
                    f"un-assignment of unbound {s.name!r}", span=s.span
                )
            core_name = self._core_name(s.name, scope)
            scope.names[s.name] = core_name

        if isinstance(s.expr, ECall):
            return self.lower_call(core_name, s.expr, scope, s.forward)

        pre: List[Stmt] = []
        expr = self.flatten_to_expr(s.expr, scope, pre)
        if s.forward:
            self.record_assign(core_name, expr)
            payload: Stmt = Assign(core_name, expr)
        else:
            payload = UnAssign(core_name, expr)
        if pre:
            from ..ir.core import With

            return With(seq(*pre), payload)
        return payload

    def _core_name(self, surface: str, scope: _Scope) -> str:
        suffix = scope.size_env.get("%instance", 0)
        candidate = surface if suffix == 0 else f"{surface}${suffix}"
        # guarantee global uniqueness across instances
        while candidate in self.types:
            self._temp_counter += 1
            candidate = f"{surface}${suffix}_{self._temp_counter}"
        return candidate

    def lower_if(self, s: SIf, scope: _Scope) -> Stmt:
        pre: List[Stmt] = []
        cond_atom = self.flatten_to_atom(s.cond, scope, pre)
        if isinstance(cond_atom, Lit):
            # constant condition: fold it.
            from ..ir.core import encode_value

            taken = encode_value(cond_atom.value, self.table) & 1
            if taken:
                branch = self.lower_stmts(s.then, scope)
            else:
                branch = (
                    self.lower_stmts(s.otherwise, scope) if s.otherwise else seq()
                )
            if pre:
                from ..ir.core import With

                return With(seq(*pre), branch)
            return branch
        cond_name = cond_atom.name
        branches: List[Stmt] = [If(cond_name, self.lower_stmts(s.then, scope))]
        if s.otherwise is not None:
            negated = self.fresh_temp()
            neg_expr = UnOp("not", Var(cond_name))
            self.record_assign(negated, neg_expr)
            pre.append(Assign(negated, neg_expr))
            branches.append(If(negated, self.lower_stmts(s.otherwise, scope)))
        if pre:
            from ..ir.core import With

            return With(seq(*pre), seq(*branches))
        return seq(*branches)

    # ------------------------------------------------------------------ calls
    def lower_call(
        self, target: str, call: ECall, scope: _Scope, forward: bool
    ) -> Stmt:
        fdef = self._resolve_fun(call)
        size = self._resolve_size(fdef, call, scope)

        pre: List[Stmt] = []
        arg_names: List[str] = []
        for arg in call.args:
            atom = self.flatten_to_atom(arg, scope, pre)
            if isinstance(atom, Lit):
                temp = self.fresh_temp()
                expr = AtomE(atom)
                self.record_assign(temp, expr)
                pre.append(Assign(temp, expr))
                atom = Var(temp)
            arg_names.append(atom.name)
        if len(arg_names) != len(fdef.params):
            raise InlineError(
                f"{fdef.name} expects {len(fdef.params)} arguments, "
                f"got {len(arg_names)}",
                span=call.span,
            )
        for (pname, pty), aname in zip(fdef.params, arg_names):
            aty = self.types.get(aname)
            if aty is not None and not self.table.equal(aty, pty):
                raise TypeCheckError(
                    f"argument {aname!r} of type {aty} passed for "
                    f"{fdef.name}.{pname} : {pty}",
                    span=call.span,
                )

        inner = self._inline_body(fdef, size, arg_names, target)
        if pre:
            from ..ir.core import With

            stmt: Stmt = With(seq(*pre), inner)
        else:
            stmt = inner
        return stmt if forward else reverse(stmt)

    def _resolve_fun(self, call: ECall) -> FunDef:
        if not self.program.has_fun(call.func):
            raise InlineError(
                f"unknown function {call.func!r}", span=call.span
            )
        return self.program.fun(call.func)

    def _resolve_size(
        self, fdef: FunDef, call: ECall, scope: _Scope
    ) -> Optional[int]:
        if fdef.size_param is None:
            if call.size is not None:
                raise InlineError(
                    f"{fdef.name} takes no recursion bound", span=call.span
                )
            return None
        if call.size is None:
            raise InlineError(
                f"{fdef.name} requires a recursion bound [..]",
                span=call.span,
            )
        try:
            return call.size.evaluate(scope.size_env)
        except KeyError as exc:
            raise InlineError(str(exc), span=call.span) from exc

    def _inline_body(
        self,
        fdef: FunDef,
        size: Optional[int],
        arg_names: List[str],
        target: str,
    ) -> Stmt:
        if fdef.return_var is None:
            raise InlineError(
                f"{fdef.name} has no return statement; it cannot be used "
                "as the right-hand side of a let",
                span=fdef.span,
            )
        if size is not None and size <= 0:
            if fdef.return_type is None:
                raise InlineError(
                    f"recursive function {fdef.name} needs a return type "
                    "annotation ('-> T') for its base case",
                    span=fdef.span,
                )
            expr = AtomE(Lit(zero_value(fdef.return_type, self.table)))
            self.record_assign(target, expr)
            return Assign(target, expr)

        if size is None:
            if fdef.name in self._unsized_stack:
                raise InlineError(
                    f"function {fdef.name!r} recurses without a [n] bound",
                    span=fdef.span,
                )
            self._unsized_stack.append(fdef.name)

        instance = self.fresh_instance()
        mapping: Dict[str, str] = {}
        for (pname, pty), aname in zip(fdef.params, arg_names):
            mapping[pname] = aname
            self.types.setdefault(aname, pty)
        returns_param = fdef.return_var in mapping
        if not returns_param:
            mapping[fdef.return_var] = target
        size_env: Dict[str, int] = {"%instance": instance}
        if fdef.size_param is not None:
            assert size is not None
            size_env[fdef.size_param] = size
        inner_scope = _Scope(mapping, size_env)
        body = self.lower_stmts(fdef.body, inner_scope)
        if returns_param:
            ret_core = mapping[fdef.return_var]
            expr = AtomE(Var(ret_core))
            self.record_assign(target, expr)
            body = seq(body, Assign(target, expr))

        if size is None:
            self._unsized_stack.pop()
        return body


def build_type_table(program: Program, config: CompilerConfig) -> TypeTable:
    """Construct the type table for a parsed program."""
    table = TypeTable(config)
    for typedef in program.typedefs:
        table.declare(typedef.name, typedef.ty)
    return table


def lower_entry(
    program: Program,
    entry: str,
    size: Optional[int] = None,
    config: Optional[CompilerConfig] = None,
) -> Lowered:
    """Lower one entry-point function of a program to core IR.

    ``size`` binds the entry function's recursion-bound parameter (required
    when the function declares one).  The entry function's parameters become
    the free input variables of the returned statement.
    """
    config = config or CompilerConfig()
    table = build_type_table(program, config)
    fdef = program.fun(entry)
    if fdef.size_param is not None:
        if size is None:
            raise InlineError(
                f"{entry} requires a recursion bound (size=...)",
                span=fdef.span,
            )
        if size < 1:
            raise InlineError(
                "entry-point recursion bound must be >= 1", span=fdef.span
            )
    engine = Desugarer(program, table)
    mapping: Dict[str, str] = {}
    param_types: Dict[str, Type] = {}
    for pname, pty in fdef.params:
        mapping[pname] = pname
        engine.types[pname] = pty
        param_types[pname] = pty
    size_env: Dict[str, int] = {"%instance": 0}
    if fdef.size_param is not None:
        assert size is not None
        size_env[fdef.size_param] = size
    scope = _Scope(mapping, size_env)
    stmt = engine.lower_stmts(fdef.body, scope)
    return_var = mapping.get(fdef.return_var) if fdef.return_var else None
    return Lowered(
        stmt=stmt,
        table=table,
        entry=entry,
        size=size,
        param_types=param_types,
        return_var=return_var,
    )


def lower_source(
    source: str,
    entry: str,
    size: Optional[int] = None,
    config: Optional[CompilerConfig] = None,
) -> Lowered:
    """Parse and lower in one step."""
    from .parser import parse_program

    return lower_entry(parse_program(source), entry, size, config)
