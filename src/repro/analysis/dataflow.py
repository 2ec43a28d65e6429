"""A reusable dataflow framework over the surface AST.

Tower programs are *structured*: there is no unstructured control flow, so
an analysis is a fold over the statement tree rather than a worklist over
a CFG.  What the framework provides:

* a **normalized node view** (:class:`NodeView`): one vocabulary of atomic
  statement kinds with ``reads``/``writes`` sets, for every
  :class:`~repro.lang.ast.SStmt`;
* **forward and backward drivers** (:func:`run_surface`) with the
  quantum-control semantics baked in: an ``if`` body runs *conditionally*
  (the result joins with the fall-through state), and a ``with`` runs
  ``setup; body; setup⁻¹`` — the driver replays the setup's transfer
  functions for the uncomputation leg (hookable per analysis);
* a surface :class:`CallGraph` with bounded-recursion structure (call
  sites with their :class:`~repro.lang.ast.SizeExpr`, recursion-nesting
  depth — the degree bound of the symbolic cost analysis).

The core-IR lint (RPA101) and the superposition budget (RPA301) need no
dataflow: they walk the checked entry's core IR directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from ..errors import AnalysisError, Span
from ..lang import ast

FORWARD = "forward"
BACKWARD = "backward"

State = Any


# ------------------------------------------------------------- node views
@dataclass(frozen=True)
class NodeView:
    """One atomic surface statement, normalized.

    ``kind`` is one of ``skip``, ``let``, ``unlet``, ``swap``, ``memswap``,
    ``had`` or ``if`` (the condition read).
    """

    kind: str
    reads: Tuple[str, ...] = ()
    writes: Tuple[str, ...] = ()
    node: Any = None
    span: Optional[Span] = None


def _surface_expr_vars(expr: ast.SExpr) -> Tuple[str, ...]:
    names: List[str] = []

    def visit(e: ast.SExpr) -> None:
        if isinstance(e, ast.EVar):
            names.append(e.name)
        elif isinstance(e, ast.EPair):
            visit(e.first)
            visit(e.second)
        elif isinstance(e, ast.EProj):
            visit(e.expr)
        elif isinstance(e, ast.EUn):
            visit(e.expr)
        elif isinstance(e, ast.EBin):
            visit(e.left)
            visit(e.right)
        elif isinstance(e, ast.ECall):
            for arg in e.args:
                visit(arg)

    visit(expr)
    return tuple(names)


def surface_calls(expr: ast.SExpr) -> Iterator[ast.ECall]:
    """Every call anywhere inside a surface expression."""
    if isinstance(expr, ast.ECall):
        yield expr
        for arg in expr.args:
            yield from surface_calls(arg)
    elif isinstance(expr, ast.EPair):
        yield from surface_calls(expr.first)
        yield from surface_calls(expr.second)
    elif isinstance(expr, (ast.EProj, ast.EUn)):
        yield from surface_calls(expr.expr)
    elif isinstance(expr, ast.EBin):
        yield from surface_calls(expr.left)
        yield from surface_calls(expr.right)


def _surface_call_writes(expr: ast.SExpr) -> Tuple[str, ...]:
    """Variables a call inside ``expr`` may modify: inlining aliases
    parameters to argument registers, so any variable passed as an
    argument is potentially written by the callee."""
    names: List[str] = []
    for call in surface_calls(expr):
        for arg in call.args:
            if isinstance(arg, ast.EVar):
                names.append(arg.name)
    return tuple(names)


def _classify(stmt: ast.SStmt) -> Tuple[Any, ...]:
    """``("atom", view)`` | ``("if", view, branches)`` |
    ``("with", setup, body)``; blocks are statement tuples."""
    if isinstance(stmt, ast.SSkip):
        return ("atom", NodeView("skip", node=stmt, span=stmt.span))
    if isinstance(stmt, ast.SLet):
        reads = _surface_expr_vars(stmt.expr)
        writes = (stmt.name,) + _surface_call_writes(stmt.expr)
        kind = "let" if stmt.forward else "unlet"
        if not stmt.forward:
            reads = reads + (stmt.name,)
        return (
            "atom",
            NodeView(kind, reads, writes, node=stmt, span=stmt.span),
        )
    if isinstance(stmt, ast.SSwapS):
        pair = (stmt.left, stmt.right)
        return (
            "atom",
            NodeView("swap", pair, pair, node=stmt, span=stmt.span),
        )
    if isinstance(stmt, ast.SMemSwap):
        return (
            "atom",
            NodeView(
                "memswap",
                (stmt.pointer, stmt.value),
                (stmt.value,),
                node=stmt,
                span=stmt.span,
            ),
        )
    if isinstance(stmt, ast.SHadamard):
        name = (stmt.name,)
        return (
            "atom",
            NodeView("had", name, name, node=stmt, span=stmt.span),
        )
    if isinstance(stmt, ast.SIf):
        reads = _surface_expr_vars(stmt.cond)
        writes = _surface_call_writes(stmt.cond)
        view = NodeView("if", reads, writes, node=stmt, span=stmt.span)
        branches = [stmt.then]
        if stmt.otherwise is not None:
            branches.append(stmt.otherwise)
        return ("if", view, branches)
    if isinstance(stmt, ast.SWith):
        return ("with", stmt.setup, stmt.body)
    raise AnalysisError(f"unknown surface statement {stmt!r}")


# --------------------------------------------------------------- analyses
#: roles a statement can execute under inside ``with`` constructs
BODY = "body"          #: ordinary straight-line execution
SETUP = "setup"        #: the forward leg of a ``with`` setup
UNCOMPUTE = "uncompute"  #: the reversed replay of a ``with`` setup


class Analysis:
    """Base class: a lattice (``initial``/``join``) plus transfer functions.

    Subclasses set :attr:`direction` and override :meth:`transfer`; atomic
    statements arrive as :class:`NodeView` with a *role* — :data:`BODY`
    for ordinary execution, :data:`SETUP` inside a ``with`` setup, and
    :data:`UNCOMPUTE` for the reversed setup replay the driver schedules
    after the with-body (uncomputation touches exactly the same variables,
    so the default transfer ignores the role; lifecycle-sensitive analyses
    branch on it).  The structural hook :meth:`observe_if` has a sound
    default.
    """

    direction = FORWARD

    def initial(self) -> State:
        raise NotImplementedError

    def join(self, a: State, b: State) -> State:
        raise NotImplementedError

    def transfer(self, view: NodeView, state: State, role: str = BODY) -> State:
        return state

    # ---------------------------------------------------- structural hooks
    def observe_if(self, view: NodeView, state: State, role: str = BODY) -> State:
        """Called at an ``if`` before (forward) / after (backward) the
        branches, with the condition's reads in ``view``."""
        return self.transfer(view, state, role)


Block = Sequence[ast.SStmt]


def _run_block(
    block: Block,
    state: State,
    analysis: Analysis,
    role: str = BODY,
) -> State:
    stmts = list(block)
    if analysis.direction == BACKWARD:
        stmts = stmts[::-1]
    for stmt in stmts:
        state = _run_stmt(stmt, state, analysis, role)
    return state


def _run_stmt(
    stmt: ast.SStmt, state: State, analysis: Analysis, role: str
) -> State:
    shape = _classify(stmt)
    kind = shape[0]
    if kind == "atom":
        return analysis.transfer(shape[1], state, role)
    if kind == "if":
        _, view, branches = shape
        if analysis.direction == FORWARD:
            state = analysis.observe_if(view, state, role)
            out = state  # the branch is conditional: fall-through joins in
            for branch in branches:
                out = analysis.join(
                    out, _run_block(branch, state, analysis, role)
                )
            return out
        out = state
        for branch in branches:
            out = analysis.join(out, _run_block(branch, state, analysis, role))
        return analysis.observe_if(view, out, role)
    if kind == "with":
        _, setup, body = shape
        # statements nested anywhere inside an outer setup inherit its
        # role: the outer reversal owns their lifecycle too
        setup_role = SETUP if role == BODY else role
        unc_role = UNCOMPUTE if role == BODY else role
        if analysis.direction == FORWARD:
            state = _run_block(setup, state, analysis, setup_role)
            state = _run_block(body, state, analysis, role)
            return _run_block(setup, state, analysis, unc_role)
        state = _run_block(setup, state, analysis, unc_role)
        state = _run_block(body, state, analysis, role)
        return _run_block(setup, state, analysis, setup_role)
    raise AnalysisError(f"unknown node shape {kind!r}")  # pragma: no cover


def run_surface(block: Block, analysis: Analysis) -> State:
    """Run one analysis over a statement block, returning the final state."""
    return _run_block(block, analysis.initial(), analysis)


# -------------------------------------------------------------- call graph
@dataclass(frozen=True)
class CallSite:
    """One surface call site: caller, callee, and the recursion bound."""

    caller: str
    callee: str
    size: Optional[ast.SizeExpr]
    span: Optional[Span] = None


def iter_stmts(block: Sequence[ast.SStmt]) -> Iterator[ast.SStmt]:
    """Every surface statement, in source order, at any nesting depth."""
    for stmt in block:
        yield stmt
        if isinstance(stmt, ast.SIf):
            yield from iter_stmts(stmt.then)
            if stmt.otherwise is not None:
                yield from iter_stmts(stmt.otherwise)
        elif isinstance(stmt, ast.SWith):
            yield from iter_stmts(stmt.setup)
            yield from iter_stmts(stmt.body)


def stmt_exprs(stmt: ast.SStmt) -> Iterator[ast.SExpr]:
    """The expressions directly attached to one statement."""
    if isinstance(stmt, ast.SLet):
        yield stmt.expr
    elif isinstance(stmt, ast.SIf):
        yield stmt.cond


class CallGraph:
    """Call structure of a surface program (bounded-recursion aware)."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.sites: Dict[str, List[CallSite]] = {}
        for fdef in program.fundefs:
            sites: List[CallSite] = []
            for stmt in iter_stmts(fdef.body):
                for expr in stmt_exprs(stmt):
                    for call in surface_calls(expr):
                        sites.append(
                            CallSite(
                                fdef.name,
                                call.func,
                                call.size,
                                call.span or stmt.span,
                            )
                        )
            self.sites[fdef.name] = sites

    def callees(self, name: str) -> List[CallSite]:
        return self.sites.get(name, [])

    def recursion_depth(self, entry: str) -> int:
        """Structural nesting depth of bounded recursion from ``entry``.

        Each *sized* function on a call chain contributes one level: a
        self-recursive ``length`` has depth 1, ``insert`` (recursive,
        calling recursive ``compare``) has depth 2.  This bounds the
        polynomial degree of the cost series: every recursion level can
        multiply the work by at most a linear factor of the depth bound.
        """
        memo: Dict[str, int] = {}

        def depth(name: str, stack: Tuple[str, ...]) -> int:
            if name in memo:
                return memo[name]
            if name in stack or not self.program.has_fun(name):
                return 0  # the cycle itself is counted at its sized root
            fdef = self.program.fun(name)
            own = 1 if fdef.size_param is not None else 0
            best = 0
            for site in self.callees(name):
                best = max(best, depth(site.callee, stack + (name,)))
            memo[name] = own + best
            return memo[name]

        return depth(entry, ())

    def reachable(self, entry: str) -> List[str]:
        """Functions reachable from ``entry``, in deterministic order."""
        seen: List[str] = []
        stack = [entry]
        while stack:
            name = stack.pop(0)
            if name in seen or not self.program.has_fun(name):
                continue
            seen.append(name)
            for site in self.callees(name):
                if site.callee not in seen:
                    stack.append(site.callee)
        return seen
