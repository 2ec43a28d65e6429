"""Static analysis for Tower programs: dataflow, cost bounds, lint.

The package has four layers:

* :mod:`~repro.analysis.dataflow` — a reusable forward/backward dataflow
  framework over the surface AST;
* concrete analyses — uncomputation safety
  (:mod:`~repro.analysis.uncompute`), dead code
  (:mod:`~repro.analysis.deadcode`), the superposition budget
  (:mod:`~repro.analysis.superpos`) and symbolic cost bounds
  (:mod:`~repro.analysis.costbound`);
* the diagnostics engine (:mod:`~repro.analysis.diagnostics`) with the
  stable ``RPA...`` code catalog and the ``repro lint`` orchestrator
  (:mod:`~repro.analysis.lint`);
* the ``analyze`` pipeline stage (:mod:`~repro.analysis.passes`),
  imported by :mod:`repro.passes` (not from here, to keep the circular
  edge one-directional) so the pass registers whenever the pass framework
  loads.
"""

from .costbound import (
    ClosedForm,
    FunctionBound,
    SymbolicReport,
    counts_for_stmt,
    fit_closed_form,
    static_bounds,
    symbolic_cost,
)
from .dataflow import (
    BACKWARD,
    BODY,
    CallGraph,
    CallSite,
    FORWARD,
    SETUP,
    UNCOMPUTE,
    Analysis,
    NodeView,
    run_surface,
)
from .deadcode import (
    check_dead_branches,
    check_empty_blocks,
    check_zero_bound_calls,
)
from .diagnostics import (
    CATALOG,
    ERROR,
    INFO,
    WARNING,
    Diagnostic,
    catalog_rows,
    make_diagnostic,
    max_severity,
    render_human,
    render_json,
    sort_diagnostics,
)
from .lint import (
    DEFAULT_LINT_SIZE,
    LintReport,
    lint_core_stmt,
    lint_program,
    lint_source,
    pick_entry,
)
from .superpos import (
    DEFAULT_SUPPORT_CAP,
    check_hadamard_budget,
)
from .uncompute import (
    check_dead_bindings,
    check_guarded_redeclare,
    check_with_mod,
)

__all__ = [
    "ClosedForm",
    "FunctionBound",
    "SymbolicReport",
    "counts_for_stmt",
    "fit_closed_form",
    "static_bounds",
    "symbolic_cost",
    "BACKWARD",
    "BODY",
    "CallGraph",
    "CallSite",
    "FORWARD",
    "SETUP",
    "UNCOMPUTE",
    "Analysis",
    "NodeView",
    "run_surface",
    "check_dead_branches",
    "check_empty_blocks",
    "check_zero_bound_calls",
    "CATALOG",
    "ERROR",
    "INFO",
    "WARNING",
    "Diagnostic",
    "catalog_rows",
    "make_diagnostic",
    "max_severity",
    "render_human",
    "render_json",
    "sort_diagnostics",
    "DEFAULT_LINT_SIZE",
    "LintReport",
    "lint_core_stmt",
    "lint_program",
    "lint_source",
    "pick_entry",
    "DEFAULT_SUPPORT_CAP",
    "check_hadamard_budget",
    "check_dead_bindings",
    "check_guarded_redeclare",
    "check_with_mod",
]
