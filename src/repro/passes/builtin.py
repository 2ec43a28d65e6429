"""The built-in passes: Spire IR rewrites and structural lowering.

IR rewrites (stage ``ir``)
    ``flatten`` and ``narrow`` — the two rules of the paper's combined
    Spire pass (Figure 22).  Both share the ``spire`` *engine*: adjacent
    occurrences in a pipeline fuse into one :class:`~repro.opt.spire.
    _Rewriter` traversal with the union of their rules, so the pipeline
    ``flatten,narrow`` reproduces :func:`~repro.opt.spire_optimize` bit-for-bit
    (sequential tree walks would not — the combined pass interleaves the
    rules at each node).

Structural passes (stage ``lower``)
    ``alloc`` (cell-width inference, register allocation, abstract
    lowering) and ``lower`` (MCX gate expansion).  Every pipeline
    contains both, exactly once.

Gate passes (stage ``gates``)
    Not defined here: each is a :mod:`repro.circopt` optimizer class,
    registered where it is defined, so one class is the optimizer, the
    pass and its parameter declaration.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet

from ..errors import LoweringError
from ..ir.core import Stmt, free_vars
from ..opt.spire import _Rewriter
from .base import (
    DETERMINISTIC,
    IR,
    LOWER,
    Pass,
    PRESERVES_TYPES,
    SEMANTICS_PRESERVING,
    register_pass,
)

# --------------------------------------------------------------- IR rewrites
#: fusion engines: engine name -> (rules, stmt) -> rewritten stmt
ENGINES: Dict[str, Callable[[FrozenSet[str], Stmt], Stmt]] = {}


def _spire_engine(rules: FrozenSet[str], stmt: Stmt) -> Stmt:
    """One Figure-22 traversal with the union of the fused passes' rules."""
    return _Rewriter(
        flatten="flatten" in rules,
        narrow="narrow" in rules,
        used_names=free_vars(stmt),
    ).optimize_seq(stmt)


ENGINES["spire"] = _spire_engine


@register_pass
class FlattenPass(Pass):
    """Conditional flattening (Section 6.1): if x { if y { s } } ~> with { z <- x && y } do { if z { s } }."""

    name = "flatten"
    stage = IR
    engine = "spire"
    rules = frozenset({"flatten"})
    invariants = frozenset(
        {SEMANTICS_PRESERVING, PRESERVES_TYPES, DETERMINISTIC}
    )

    def apply(self, ctx) -> None:
        # through the ENGINES seam, so fused and single-rule execution
        # share one injection/instrumentation point
        ctx.stmt = ENGINES[self.engine](self.rules, ctx.stmt)


@register_pass
class NarrowPass(Pass):
    """Conditional narrowing (Section 6.2): if x { with { s1 } do { s2 } } ~> with { s1 } do { if x { s2 } }."""

    name = "narrow"
    stage = IR
    engine = "spire"
    rules = frozenset({"narrow"})
    invariants = frozenset(
        {SEMANTICS_PRESERVING, PRESERVES_TYPES, DETERMINISTIC}
    )

    def apply(self, ctx) -> None:
        ctx.stmt = ENGINES[self.engine](self.rules, ctx.stmt)


# ---------------------------------------------------------- structural stages
@register_pass
class AllocPass(Pass):
    """Cell-width inference, register allocation and abstract lowering (Section 7).

    The register widths come from the last check the pipeline ran
    (``ctx.var_types``): the frontend's strict check, or the relaxed
    check the pass manager runs after the pipeline's IR passes.
    """

    name = "alloc"
    stage = LOWER
    invariants = frozenset({SEMANTICS_PRESERVING, DETERMINISTIC})

    def apply(self, ctx) -> None:
        from ..compiler.lower_ir import lower_to_abstract
        from ..compiler.pipeline import infer_cell_bits

        config = ctx.config
        if config.cell_bits is not None:
            cell_bits = config.cell_bits
            needed = infer_cell_bits(ctx.stmt, ctx.table, ctx.var_types)
            if needed > cell_bits:
                raise LoweringError(
                    f"configured cell_bits={cell_bits} too narrow; program "
                    f"stores values of {needed} bits"
                )
        else:
            cell_bits = infer_cell_bits(ctx.stmt, ctx.table, ctx.var_types)
        ctx.cell_bits = cell_bits
        mem_qubits = config.heap_cells * cell_bits if cell_bits else 0
        ctx.abstract = lower_to_abstract(
            ctx.stmt,
            ctx.table,
            ctx.var_types,
            param_order=list(ctx.param_types),
            base_offset=mem_qubits,
        )


@register_pass
class LowerPass(Pass):
    """MCX gate expansion of the abstract circuit (Section 7, Figure 5)."""

    name = "lower"
    stage = LOWER
    invariants = frozenset({SEMANTICS_PRESERVING, DETERMINISTIC})

    def apply(self, ctx) -> None:
        from ..compiler.lower_gates import expand_program

        ctx.circuit, _scratch = expand_program(
            ctx.abstract, ctx.config, ctx.cell_bits
        )
