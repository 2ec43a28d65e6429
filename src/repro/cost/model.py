"""The paper's cost model (Section 5), as syntax-directed equations.

``C_MCX`` follows the left column of Section 5::

    C_MCX(skip) = 0                  C_MCX(s1; s2) = C_MCX(s1) + C_MCX(s2)
    C_MCX(if x { s }) = C_MCX(s)     C_MCX(s) = c_MCX_s   otherwise

``C_T`` follows the right column; with ``m`` enclosing quantum ifs::

    C_T(if x { s1; s2 })   = C_T(if x { s1 }) + C_T(if x { s2 })
    C_T(if x { H(y) })     = c_T_CH            (+ c_T_ctrl per extra level)
    C_T(if x { y <- v })   = 0 for a constant v (one control on X is free)
    C_T(if x { s })        = c_T_ctrl * C_MCX(s) + C_T(s)   otherwise

The per-primitive constants ``c_MCX_s`` and ``c_T_s`` are "determined by the
implementation of s" (Section 5) — we read them off the very lowering the
compiler uses, via :class:`repro.cost.exact.ExactCostModel`, whose
process-wide table prices each primitive shape once.  Both columns come
from one walk over the IR that carries the number of enclosing ifs.  The
difference between this model and the exact one is deliberate: it charges the
flat ``c_T_ctrl = 14`` for *every* control including the first two (whose
true marginal costs are 7 and 0/7), which is how the paper states it.  Both
agree asymptotically; the test suite checks degrees match.

``with { s1 } do { s2 }`` is costed as its expansion ``s1; s2; I[s1]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..ir.core import (
    Assign,
    AtomE,
    Hadamard,
    If,
    Lit,
    Seq,
    Skip,
    Stmt,
    UnAssign,
    With,
)
from ..types import Type, TypeTable
from .constants import C_T_CH_PAPER, C_T_CTRL
from .exact import ExactCostModel


@dataclass
class CostReport:
    """Predicted complexities of a program."""

    mcx: int
    t: int


class PaperCostModel:
    """Evaluates the Section 5 equations on core IR."""

    def __init__(
        self,
        table: TypeTable,
        var_types: Dict[str, Type],
        cell_bits: int = 0,
        c_t_ctrl: int = C_T_CTRL,
        c_t_ch: int = C_T_CH_PAPER,
    ) -> None:
        self._primitives = ExactCostModel(table, var_types, cell_bits)
        self.c_t_ctrl = c_t_ctrl
        self.c_t_ch = c_t_ch

    # ------------------------------------------------------------ equations
    def c_mcx(self, stmt: Stmt) -> int:
        """``C_MCX(stmt)``, the left column."""
        return self._walk(stmt, 0)[0]

    def c_t(self, stmt: Stmt, depth: int = 0) -> int:
        """``C_T(stmt)`` under ``depth`` enclosing quantum ifs, the right
        column."""
        return self._walk(stmt, depth)[1]

    def report(self, stmt: Stmt) -> CostReport:
        mcx, t = self._walk(stmt, 0)
        return CostReport(mcx=mcx, t=t)

    def _walk(self, stmt: Stmt, depth: int) -> Tuple[int, int]:
        """``(C_MCX, C_T)`` of ``stmt`` under ``depth`` enclosing ifs."""
        if isinstance(stmt, Seq):
            costs = [self._walk(sub, depth) for sub in stmt.stmts]
            return sum(mcx for mcx, _ in costs), sum(t for _, t in costs)
        if isinstance(stmt, If):
            return self._walk(stmt.body, depth + 1)
        if isinstance(stmt, With):
            setup_mcx, setup_t = self._walk(stmt.setup, depth)
            body_mcx, body_t = self._walk(stmt.body, depth)
            return 2 * setup_mcx + body_mcx, 2 * setup_t + body_t
        if isinstance(stmt, Skip):
            return 0, 0
        priced = self._primitives.priced(stmt)
        if isinstance(stmt, Hadamard):
            return priced.mcx, self.c_t_ch + (depth - 1) * self.c_t_ctrl if depth else 0
        if isinstance(stmt, (Assign, UnAssign)):
            expr = stmt.expr
            if isinstance(expr, AtomE) and isinstance(expr.atom, Lit):
                # if x { y <- v }: a control on X gates yields CNOTs, which
                # are Clifford; only levels beyond the first cost anything.
                return priced.mcx, max(0, depth - 1) * self.c_t_ctrl * priced.mcx
        return priced.mcx, depth * self.c_t_ctrl * priced.mcx + priced.t


def predicted_counts(
    stmt: Stmt,
    table: TypeTable,
    var_types: Dict[str, Type],
    cell_bits: int = 0,
) -> CostReport:
    """Predicted (MCX, T) complexities under the paper's cost model."""
    model = PaperCostModel(table, var_types, cell_bits)
    return model.report(stmt)
