"""Unified pass framework: one pipeline for IR rewrites and circuit optimizers.

``Pipeline`` parses specs like ``"flatten,narrow,alloc,lower,peephole"``;
``PassManager`` executes them with per-pass timing, artifact snapshots and
optional between-pass invariant verification, and ``rewrite_ir`` applies
just their IR passes, for the static cost analysis.  The historical
``optimization`` levels (``none|spire|flatten|narrow``) are presets over
the same registry, optionally suffixed with gate passes
(``spire+peephole``); see :mod:`repro.passes.pipeline`.
"""

from .base import (
    ANALYZE,
    CLIFFORD_T_OUTPUT,
    DETERMINISTIC,
    GATES,
    IR,
    KNOWN_INVARIANTS,
    LOWER,
    Pass,
    PassError,
    PassVerificationError,
    PRESERVES_TYPES,
    SEMANTICS_PRESERVING,
    STAGES,
    STATIC_COST_BOUND,
    TCOUNT_NONINCREASING,
    get_pass_class,
    make_pass,
    pass_catalog,
    pass_names,
    register_pass,
    unregister_pass,
)
from .builtin import ENGINES
from .pipeline import (
    PRESETS,
    PassSpec,
    Pipeline,
    canonical_pipeline,
    resolve_pipeline,
)
from .manager import PassContext, PassManager, PassRecord, rewrite_ir

# importing the analysis pass module registers the 'analyze' stage pass,
# and importing repro.circopt registers its optimizers, the gate passes;
# module-level (not from-) imports keep the circular edges with
# repro.analysis and repro.circopt safe in either import order
from ..analysis import passes as _analysis_passes  # noqa: E402,F401
from .. import circopt as _circopt  # noqa: E402,F401

__all__ = [
    "ANALYZE",
    "CLIFFORD_T_OUTPUT",
    "DETERMINISTIC",
    "GATES",
    "IR",
    "KNOWN_INVARIANTS",
    "LOWER",
    "Pass",
    "PassError",
    "PassVerificationError",
    "PRESERVES_TYPES",
    "SEMANTICS_PRESERVING",
    "STAGES",
    "STATIC_COST_BOUND",
    "TCOUNT_NONINCREASING",
    "get_pass_class",
    "make_pass",
    "pass_catalog",
    "pass_names",
    "register_pass",
    "unregister_pass",
    "ENGINES",
    "PRESETS",
    "PassSpec",
    "Pipeline",
    "canonical_pipeline",
    "resolve_pipeline",
    "PassContext",
    "PassManager",
    "PassRecord",
    "rewrite_ir",
]
