"""Uncomputation-safety lints: RPA101, RPA102, RPA103.

``with s1 do s2`` uncomputes ``s1`` by running its inverse after ``s2``
(Section 2; ``I[with s1 do s2] = with s1 do I[s2]``).  That inverse only
restores the setup's ancillae when ``s2`` left the setup's *inputs* alone:
Figure 20's ``mod`` side condition requires ``mod(s2) ∩ free(s1) = ∅``.
The typechecker does not enforce the condition today, so a program can be
type-correct yet uncompute garbage — RPA101 flags exactly this, on the
post-inlining core IR where ``mod``/``free`` are precise (validated to
produce zero findings across the Table-1 suite and hundreds of fuzz
programs under every pipeline preset).

RPA102 (surface, backward liveness) flags bindings that are never used,
returned, or explicitly uncomputed — dead stores that keep ancillae alive.
RPA103 (surface, forward scope tracking) marks the guarded-XOR
re-declaration idiom: a ``with`` setup re-declaring a name bound in the
enclosing scope.  That idiom is *legal* (the desugarer maps it to the same
core register, accumulating with XOR) but it is the exact shape that
exposed a binding-count defect in a since-removed second typing walk
(``tests/corpus/cases/infer-types-guarded-redeclare.json``), so the lint
records it at info severity.
"""

from __future__ import annotations

from typing import FrozenSet, List, Optional, Tuple

from ..errors import Span
from ..ir import core
from ..lang import ast
from .dataflow import (
    BACKWARD,
    BODY,
    FORWARD,
    SETUP,
    UNCOMPUTE,
    Analysis,
    NodeView,
    run_surface,
)
from .diagnostics import Diagnostic, make_diagnostic


# ------------------------------------------------------------ RPA101: core
def check_with_mod(
    stmt: core.Stmt, function: str = "", span: Optional[Span] = None
) -> List[Diagnostic]:
    """Flag every ``with`` whose body modifies a setup dependency."""
    diags: List[Diagnostic] = []
    for node in stmt.walk():
        if not isinstance(node, core.With):
            continue
        clobbered = sorted(
            core.mod_set(node.body) & core.free_vars(node.setup)
        )
        if clobbered:
            names = ", ".join(repr(n) for n in clobbered)
            diags.append(
                make_diagnostic(
                    "RPA101",
                    "with-body modifies setup dependencies "
                    f"{names}; uncomputing the setup is unsound",
                    span=span,
                    function=function,
                )
            )
    return diags


# ------------------------------------------- RPA102: surface dead bindings
class _Liveness(Analysis):
    """Backward liveness over one function body.

    State is the frozenset of names read later; a ``let`` whose target is
    dead at its own site (and is not the function's return variable) is a
    dead store.  Bindings made inside ``with`` setups are exempt: the
    construct uncomputes them by design.
    """

    direction = BACKWARD

    def __init__(self, return_var: Optional[str], function: str) -> None:
        self.return_var = return_var
        self.function = function
        self.findings: List[Tuple[str, Optional[Span]]] = []

    def initial(self) -> FrozenSet[str]:
        return frozenset(
            {self.return_var} if self.return_var is not None else ()
        )

    def join(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a | b

    def transfer(
        self, view: NodeView, state: FrozenSet[str], role: str = BODY
    ) -> FrozenSet[str]:
        if view.kind == "let":
            name = view.writes[0]
            if role == BODY and name not in state:
                self.findings.append((name, view.span))
            state = state - {name}
        elif view.kind == "unlet":
            # un-assignment consumes the binding: it IS the uncomputation
            state = state - {view.writes[0]}
        if role == UNCOMPUTE:
            # the reversed replay happens after the body in program order;
            # backward traversal visits it first, and its reads must not
            # resurrect liveness *before* the body — the forward setup leg
            # already contributes those reads
            return state
        return state | frozenset(view.reads)


def check_dead_bindings(fdef: ast.FunDef) -> List[Diagnostic]:
    """RPA102 over one surface function.

    Names bound more than once (and parameter shadows) are exempt:
    re-declaration is XOR accumulation onto the existing register, so the
    earlier binding's value still flows into the later one.
    """
    from .dataflow import iter_stmts

    counts: dict = {}
    for stmt in iter_stmts(fdef.body):
        if isinstance(stmt, ast.SLet) and stmt.forward:
            counts[stmt.name] = counts.get(stmt.name, 0) + 1
    params = {name for name, _ in fdef.params}
    accumulated = {
        name for name, n in counts.items() if n > 1 or name in params
    }
    analysis = _Liveness(fdef.return_var, fdef.name)
    run_surface(fdef.body, analysis)
    return [
        make_diagnostic(
            "RPA102",
            f"binding {name!r} is never used, returned, or uncomputed",
            span=span or fdef.span,
            function=fdef.name,
        )
        for name, span in analysis.findings
        if name not in accumulated
    ]


# ------------------------------------------ RPA103: guarded re-declarations
class _Redeclare(Analysis):
    """Forward scope tracking: report ``let x`` in a with-setup where
    ``x`` is already bound in the enclosing scope."""

    direction = FORWARD

    def __init__(self, params: Tuple[str, ...], function: str) -> None:
        self.function = function
        self.findings: List[Tuple[str, Optional[Span]]] = []
        self._params = params

    def initial(self) -> FrozenSet[str]:
        return frozenset(self._params)

    def join(self, a: FrozenSet[str], b: FrozenSet[str]) -> FrozenSet[str]:
        return a | b

    def transfer(
        self, view: NodeView, state: FrozenSet[str], role: str = BODY
    ) -> FrozenSet[str]:
        if view.kind == "let":
            name = view.writes[0]
            if role == SETUP and name in state:
                self.findings.append((name, view.span))
            if role == UNCOMPUTE:
                return state - {name}
            return state | {name}
        if view.kind == "unlet":
            return state - {view.writes[0]}
        return state


def check_guarded_redeclare(fdef: ast.FunDef) -> List[Diagnostic]:
    """RPA103 over one surface function."""
    analysis = _Redeclare(tuple(n for n, _ in fdef.params), fdef.name)
    run_surface(fdef.body, analysis)
    return [
        make_diagnostic(
            "RPA103",
            f"with-setup re-declares {name!r} from the enclosing scope "
            "(guarded-XOR accumulation)",
            span=span or fdef.span,
            function=fdef.name,
        )
        for name, span in analysis.findings
    ]
