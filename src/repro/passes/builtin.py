"""The built-in passes: Spire IR rewrites, structural lowering, circopt.

IR rewrites (stage ``ir``)
    ``flatten`` and ``narrow`` — the two rules of the paper's combined
    Spire pass (Figure 22).  Both share the ``spire`` *engine*: adjacent
    occurrences in a pipeline fuse into one :class:`~repro.opt.spire.
    _Rewriter` traversal with the union of their rules, so the pipeline
    ``flatten,narrow`` reproduces ``OPTIMIZATIONS["spire"]`` bit-for-bit
    (sequential tree walks would not — the combined pass interleaves the
    rules at each node).

Structural passes (stage ``lower``)
    ``alloc`` (type inference, cell-width inference, register allocation,
    abstract lowering) and ``lower`` (MCX gate expansion).  Every pipeline
    contains both, exactly once.

Gate passes (stage ``gates``)
    One pass per registered :mod:`repro.circopt` optimizer, generated from
    the circopt registry so the two stay in lockstep.  Parameters are
    forwarded to the optimizer constructor (``peephole(window=32)``),
    which declares them: an undeclared name, or a value whose type differs
    from the declared default's (an ``int`` may stand for a ``float``), is
    rejected when the spec is parsed.
"""

from __future__ import annotations

import inspect
from typing import Callable, Dict, FrozenSet

from ..circopt.base import get_optimizer, optimizer_class, optimizer_names
from ..errors import LoweringError
from ..ir.core import Stmt, free_vars
from ..ir.typecheck import infer_types
from ..opt.spire import _Rewriter
from .base import (
    CLIFFORD_T_OUTPUT,
    DETERMINISTIC,
    GATES,
    IR,
    LOWER,
    Pass,
    PRESERVES_TYPES,
    SEMANTICS_PRESERVING,
    TCOUNT_NONINCREASING,
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
    """Type inference, cell-width inference and abstract lowering (Section 7)."""

    name = "alloc"
    stage = LOWER
    invariants = frozenset({SEMANTICS_PRESERVING, DETERMINISTIC})

    def apply(self, ctx) -> None:
        from ..compiler.lower_ir import lower_to_abstract
        from ..compiler.pipeline import infer_cell_bits

        config = ctx.config
        ctx.var_types = infer_types(ctx.stmt, ctx.table, ctx.param_types)
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


# ---------------------------------------------------------------- gate passes
def _register_gate_pass(opt_name: str) -> None:
    cls = optimizer_class(opt_name)
    deterministic = opt_name != "greedy-search"
    invariants = {SEMANTICS_PRESERVING, TCOUNT_NONINCREASING, CLIFFORD_T_OUTPUT}
    if deterministic:
        invariants.add(DETERMINISTIC)
    #: the optimizer constructor's parameters and their defaults
    declared = {
        param.name: param.default
        for param in inspect.signature(cls).parameters.values()
        if param.default is not param.empty
    }

    class _GatePass(Pass):
        name = opt_name
        stage = GATES

        def __init__(self, **params) -> None:
            for key, value in params.items():
                if key not in declared:
                    raise TypeError(
                        f"unexpected parameter {key!r}; "
                        f"declared: {sorted(declared)}"
                    )
                want = type(declared[key])
                if not (
                    type(value) is want
                    or (want is float and type(value) is int)
                ):
                    raise TypeError(
                        f"parameter {key!r} must be {want.__name__}, "
                        f"got {value!r}"
                    )
            self.params = dict(params)

        def apply(self, ctx) -> None:
            opt = get_optimizer(self.name, **self.params)
            opt.cache = ctx.decomposition_cache
            ctx.circuit = opt.run(ctx.circuit)

    _GatePass.invariants = frozenset(invariants)
    first_line = (cls.__doc__ or "").strip().splitlines()
    summary = first_line[0] if first_line else opt_name
    _GatePass.__doc__ = (
        f"{summary} Models {cls.models}." if cls.models else summary
    )
    _GatePass.__name__ = f"GatePass_{opt_name.replace('-', '_')}"
    register_pass(_GatePass)


for _name in optimizer_names():
    _register_gate_pass(_name)
del _name
