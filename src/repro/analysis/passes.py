"""The ``analyze`` pipeline stage: static bounds checked against circuits.

:class:`AnalyzePass` runs before any rewrite.  It predicts the cost of the
program *as this pipeline will rewrite it*: the pipeline's IR passes are
applied to the statement by :func:`repro.passes.rewrite_ir` (the pass
manager's own grouping, so fused ``flatten,narrow`` is the one combined
Spire traversal the compile runs) and the exact cost model prices the
result.  Dominance across pipelines is empirically false — flattening
can *increase* T-complexity on programs whose conditionals are cheaper
than the guard plumbing — so the bound is always that of this pipeline,
never "the cheapest one".

Under ``--verify-passes`` the manager then asserts:

* at the ``lower`` boundary, the built circuit's MCX- and T-complexity
  **equal** the static bound (the pipeline's rewrite did exactly what the
  analysis priced);
* after the final gate pass, the circuit's T-count is **at most** the
  static bound (circuit optimizers never regress it).

The pass also snapshots the core-IR lint findings (the Figure 20 ``mod``
side condition) so a pipeline run records whether its input was clean.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from ..passes.base import (
    ANALYZE,
    DETERMINISTIC,
    Pass,
    SEMANTICS_PRESERVING,
    STATIC_COST_BOUND,
    register_pass,
)
from .diagnostics import Diagnostic


@dataclass(frozen=True)
class StaticCostBound:
    """The analyze stage's prediction for one pipeline run."""

    mcx: int
    t: int
    pipeline: str = ""
    diagnostics: Tuple[Diagnostic, ...] = field(default=())

    def row(self) -> dict:
        return {
            "mcx_bound": self.mcx,
            "t_bound": self.t,
            "pipeline": self.pipeline,
            "diagnostics": [d.row() for d in self.diagnostics],
        }


@register_pass
class AnalyzePass(Pass):
    """Predict this pipeline's exact MCX/T cost and lint the core IR."""

    name = "analyze"
    stage = ANALYZE
    # reads the program without rewriting it: trivially semantics-preserving
    invariants = frozenset(
        {SEMANTICS_PRESERVING, DETERMINISTIC, STATIC_COST_BOUND}
    )

    def apply(self, ctx) -> None:
        # lazy: repro.passes imports this module to register the pass
        from ..passes.manager import rewrite_ir
        from .costbound import counts_for_stmt
        from .lint import lint_core_stmt

        stmt = ctx.stmt
        pipeline = getattr(ctx, "pipeline", None)
        if pipeline is not None:
            stmt = rewrite_ir(pipeline, stmt, ctx.table, ctx.param_types)
        mcx, t = counts_for_stmt(stmt, ctx.table, ctx.param_types)
        ctx.analysis = StaticCostBound(
            mcx=mcx,
            t=t,
            pipeline=pipeline.spec() if pipeline is not None else "",
            diagnostics=tuple(lint_core_stmt(ctx.stmt)),
        )
