"""The ``repro lint`` entry point: orchestrate every analysis on a program.

One call (:func:`lint_source` / :func:`lint_program`) produces a
:class:`LintReport` whose diagnostics are deterministic (sorted, deduped)
and whose renderers are shared with ``repro analyze --symbolic``:

* frontend failures become findings, not exceptions: RPA001 (no parse)
  and RPA002 (no typecheck / no inline) carry the frontend's span;
* the surface analyses (dead bindings, guarded re-declarations, dead
  branches, empty blocks, zero-bound calls) run per function definition;
* the core-IR analysis (the Figure 20 ``mod`` side condition, RPA101) and
  the superposition budget (RPA301) run on the lowered entry point,
  because both need inlining to be precise.

The lowered entry point is a *checked entry*
(:func:`~repro.compiler.pipeline.check_entry`: desugared, then checked
strictly), exactly what a compile of it starts from.  :func:`lint_source`
takes the parsed program and the checked entry from a
:class:`~repro.compiler.pipeline.Frontend` memo (the caller's, or a fresh
one), so a compile through the same frontend (``repro serve``'s runner)
parses, desugars and checks the program no second time.

The linted program is *data*: internal analysis failures raise
:class:`~repro.errors.AnalysisError` (CLI exit code 3), while findings —
including a program that does not parse — are reported normally (exit
code 1 only when an error-severity finding is present).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional

from ..compiler.pipeline import CheckedEntry, Frontend
from ..config import CompilerConfig
from ..errors import InlineError, LexError, ParseError, TypeCheckError
from ..ir import core
from ..lang import ast
from .deadcode import (
    check_dead_branches,
    check_empty_blocks,
    check_zero_bound_calls,
)
from .diagnostics import (
    ERROR,
    Diagnostic,
    errors_of,
    make_diagnostic,
    max_severity,
    render_human,
    render_json,
    sort_diagnostics,
)
from .superpos import DEFAULT_SUPPORT_CAP, check_hadamard_budget
from .uncompute import (
    check_dead_bindings,
    check_guarded_redeclare,
    check_with_mod,
)

#: recursion bound used for the lowered-entry checks when the caller does
#: not pick one: deep enough that every recursive structure unrolls at
#: least twice (the guarded-value cleanup patterns need two live levels)
DEFAULT_LINT_SIZE = 3


@dataclass
class LintReport:
    """Everything ``repro lint`` knows about one program."""

    path: str = "<input>"
    entry: Optional[str] = None
    size: Optional[int] = None
    diagnostics: List[Diagnostic] = field(default_factory=list)

    def extend(self, diags: List[Diagnostic]) -> None:
        self.diagnostics = sort_diagnostics(self.diagnostics + diags)

    @property
    def max_severity(self) -> Optional[str]:
        return max_severity(self.diagnostics)

    @property
    def errors(self) -> List[Diagnostic]:
        return errors_of(self.diagnostics)

    @property
    def clean(self) -> bool:
        return not self.diagnostics

    def exit_code(self) -> int:
        """0 when no error-severity finding is present, else 1."""
        return 1 if self.errors else 0

    def render_human(self) -> str:
        return render_human(self.diagnostics, path=self.path)

    def render_json(self, extra: Optional[Mapping[str, Any]] = None) -> str:
        meta: Dict[str, Any] = {"entry": self.entry, "size": self.size}
        if extra:
            meta.update(dict(extra))
        return render_json(self.diagnostics, path=self.path, extra=meta)


def _surface_checks(program: ast.Program) -> List[Diagnostic]:
    diags: List[Diagnostic] = []
    for fdef in program.fundefs:
        diags.extend(check_dead_bindings(fdef))
        diags.extend(check_guarded_redeclare(fdef))
        diags.extend(check_dead_branches(fdef))
        diags.extend(check_empty_blocks(fdef))
        diags.extend(check_zero_bound_calls(fdef))
    return diags


def lint_core_stmt(
    stmt: core.Stmt, function: str = ""
) -> List[Diagnostic]:
    """The core-IR lints alone, for already-lowered (or pass-rewritten)
    statements — the fuzz oracle runs this after every pipeline preset."""
    return sort_diagnostics(check_with_mod(stmt, function=function))


def pick_entry(program: ast.Program) -> Optional[str]:
    """The default entry point: ``main`` when present, else the first
    function defined."""
    if program.has_fun("main"):
        return "main"
    if program.fundefs:
        return program.fundefs[0].name
    return None


def lint_program(
    program: ast.Program,
    check: Callable[[str, Optional[int]], CheckedEntry],
    entry: Optional[str] = None,
    size: Optional[int] = None,
    path: str = "<input>",
    support_cap: int = DEFAULT_SUPPORT_CAP,
) -> LintReport:
    """Run every analysis over a parsed program.

    ``check(entry, size)`` builds the checked entry point of ``program``
    the core-IR analyses read (:meth:`Frontend.checked
    <repro.compiler.pipeline.Frontend.checked>` of its source).
    """
    report = LintReport(path=path)
    report.extend(_surface_checks(program))

    resolved = entry if entry is not None else pick_entry(program)
    if resolved is None or not program.has_fun(resolved):
        if entry is not None:
            report.extend(
                [
                    make_diagnostic(
                        "RPA002",
                        f"entry function {entry!r} is not defined",
                    )
                ]
            )
        return report
    report.entry = resolved
    fdef = program.fun(resolved)
    use_size: Optional[int]
    if fdef.size_param is None:
        use_size = None
    else:
        use_size = size if size is not None else DEFAULT_LINT_SIZE
    report.size = use_size

    try:
        lowered = check(resolved, use_size).lowered
    except (TypeCheckError, InlineError) as exc:
        message = getattr(exc, "bare_message", str(exc))
        report.extend(
            [
                make_diagnostic(
                    "RPA002",
                    f"the program does not typecheck: {message}",
                    span=exc.span,
                    function=resolved,
                )
            ]
        )
        return report

    report.extend(
        check_with_mod(lowered.stmt, function=resolved, span=fdef.span)
    )
    report.extend(
        check_hadamard_budget(
            program, resolved, use_size, support_cap=support_cap
        )
    )
    return report


def lint_source(
    source: str,
    entry: Optional[str] = None,
    size: Optional[int] = None,
    config: Optional[CompilerConfig] = None,
    path: str = "<input>",
    support_cap: int = DEFAULT_SUPPORT_CAP,
    frontend: Optional[Frontend] = None,
) -> LintReport:
    """Parse and lint a Tower source program.

    A parse failure is itself a finding (RPA001), so the report is always
    produced; only internal analysis defects raise.  The parse and the
    checked entry come from (and stay in) ``frontend``'s memo, a fresh
    one by default.
    """
    if frontend is None:
        frontend = Frontend()
    try:
        program = frontend.program(source)
    except (LexError, ParseError) as exc:
        report = LintReport(path=path)
        report.extend(
            [
                make_diagnostic(
                    "RPA001",
                    f"the program does not parse: {exc}",
                    span=exc.span,
                    severity=ERROR,
                )
            ]
        )
        return report
    return lint_program(
        program,
        functools.partial(frontend.checked, source, config=config),
        entry=entry,
        size=size,
        path=path,
        support_cap=support_cap,
    )
