"""Exception hierarchy for the repro package.

Every user-facing error raised by the language frontend, the compiler, the
cost model, or the optimizers derives from :class:`ReproError`, so callers
can catch one type to handle any failure of the toolchain.

Errors that can point into a source program carry an optional
:class:`Span` — the one location format shared by the lexer, the parser,
the typechecker, and the ``repro lint`` diagnostics engine
(:mod:`repro.analysis.diagnostics`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True, order=True)
class Span:
    """A source position: 1-based line and column (0 = unknown).

    ``end_line``/``end_column`` are optional (0 = same as start); most
    producers only record the start of the offending token, which is all
    the diagnostics renderer needs.
    """

    line: int
    column: int
    end_line: int = 0
    end_column: int = 0

    def label(self) -> str:
        """The canonical ``line:column`` rendering."""
        return f"{self.line}:{self.column}"

    @property
    def known(self) -> bool:
        return self.line > 0


def format_location(span: Optional[Span], message: str) -> str:
    """Prefix ``message`` with a span label when one is known."""
    if span is not None and span.known:
        return f"{span.label()}: {message}"
    return message


class ReproError(Exception):
    """Base class for all errors raised by this package."""

    #: source location of the error, when the raiser knew one
    span: Optional[Span] = None


class LexError(ReproError):
    """Raised when the lexer encounters an invalid character or token."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"{line}:{column}: {message}")
        self.line = line
        self.column = column
        self.span = Span(line, column)


class ParseError(ReproError):
    """Raised when the parser encounters a malformed program."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        super().__init__(f"{line}:{column}: {message}" if line else message)
        self.line = line
        self.column = column
        self.span = Span(line, column) if line else None


class SpannedError(ReproError):
    """A :class:`ReproError` that may carry a source :class:`Span`.

    The span is appended to the message in the shared ``line:column:``
    format only when known, so existing no-span raise sites keep their
    exact message text.
    """

    def __init__(self, message: str, span: Optional[Span] = None) -> None:
        super().__init__(format_location(span, message))
        self.span = span
        self.bare_message = message


class TypeCheckError(SpannedError):
    """Raised when a program is not well-formed under the Tower type system."""


class InlineError(SpannedError):
    """Raised when bounded-recursion inlining fails (unknown function,
    non-constant recursion bound, arity mismatch, ...)."""


class LoweringError(ReproError):
    """Raised when core IR cannot be lowered to a circuit."""


class AllocationError(ReproError):
    """Raised when register allocation cannot satisfy the Appendix D rule."""


class SimulationError(ReproError):
    """Raised by the circuit simulators (unsupported gate, bad state, ...)."""


class CostModelError(ReproError):
    """Raised when the cost model is applied to an ill-formed program."""


class AnalysisError(ReproError):
    """Raised when a static analysis cannot complete (internal failure,
    unfittable symbolic bound, ...) — distinct from *findings*, which are
    reported as diagnostics, not exceptions."""
