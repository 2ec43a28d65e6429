"""Spire's program-level optimizations (Section 6, Figure 22).

The combined pass is a line-for-line port of the paper's 12-line OCaml
implementation (Appendix C):

* **conditional flattening** (Section 6.1)::

      if x { if y { s } }  ~>  with { x' <- x && y } do { if x' { s } }
      if x { s1; s2 }      ~>  if x { s1 }; if x { s2 }

* **conditional narrowing** (Section 6.2)::

      if x { with { s1 } do { s2 } }  ~>  with { s1 } do { if x { s2 } }

Both rewrites preserve circuit semantics (Theorems 6.3 and 6.5); the test
suite checks this by simulation.  ``flatten_only`` and ``narrow_only``
variants apply one rule at a time, which the evaluation (Figures 15a and
24) measures separately; both still distribute ``if`` over sequences, as
the paper's combined pass does implicitly via its ``List.map``.

The compiler names these rewrites as pipeline passes (``flatten``,
``narrow`` and the ``spire`` preset, :mod:`repro.passes.builtin`), which
drive the same rewriter; these functions are the monolithic reference.
"""

from __future__ import annotations

from typing import List

from ..ir.core import (
    Assign,
    BinOp,
    If,
    Seq,
    Skip,
    Stmt,
    Var,
    With,
    free_vars,
    seq,
    seq_list,
)


class _Rewriter:
    """One optimization run: carries rule toggles and a fresh-name counter."""

    def __init__(self, flatten: bool, narrow: bool, used_names: frozenset = frozenset()) -> None:
        self.flatten = flatten
        self.narrow = narrow
        self._counter = 0
        for name in used_names:
            if name.startswith("%cf") and name[3:].isdigit():
                self._counter = max(self._counter, int(name[3:]))

    def fresh(self) -> str:
        self._counter += 1
        return f"%cf{self._counter}"

    def optimize_stmt(self, stmt: Stmt) -> List[Stmt]:
        """The ``optimize_stmt`` function of Figure 22."""
        if isinstance(stmt, Skip):
            return []
        if isinstance(stmt, Seq):
            result: List[Stmt] = []
            for sub in stmt.stmts:
                result.extend(self.optimize_stmt(sub))
            return result
        if isinstance(stmt, With):
            return [With(self.optimize_seq(stmt.setup), self.optimize_seq(stmt.body))]
        if isinstance(stmt, If):
            return self.optimize_if(stmt)
        return [stmt]  # primitive statements pass through unchanged

    def optimize_if(self, stmt: If) -> List[Stmt]:
        """Rewrite ``if x { body }``, mapping over the body's statements.

        Mirrors the OCaml ``Sif (x, ss) -> List.map ss ~f:(...)``; the
        if-over-sequence distribution is implicit in producing one statement
        per body element.
        """
        x = stmt.cond
        result: List[Stmt] = []
        for sub in seq_list(stmt.body):
            if isinstance(sub, With) and self.narrow:
                # conditional narrowing:
                #   if x { with {s1} do {s2} } ~> with {s1} do { if x {s2} }
                result.append(
                    With(
                        self.optimize_seq(sub.setup),
                        seq(*self.optimize_stmt(If(x, sub.body))),
                    )
                )
            elif isinstance(sub, With) and self.flatten:
                # flattening-only mode: push the if into *both* blocks, which
                # keeps every control bit (no narrowing benefit) but exposes
                # the nested ifs inside the do-block to the flattening rule.
                #   if x { with {s1} do {s2} }
                #     ~> with { if x {s1} } do { if x {s2} }
                # (both sides expand to if x {s1}; if x {s2}; if x {I[s1]}).
                result.append(
                    With(
                        seq(*self.optimize_stmt(If(x, sub.setup))),
                        seq(*self.optimize_stmt(If(x, sub.body))),
                    )
                )
            elif isinstance(sub, If) and self.flatten:
                # conditional flattening:
                #   if x { if y { s } } ~> with {z <- x && y} do { if z { s } }
                z = self.fresh()
                result.append(
                    With(
                        Assign(z, BinOp("&&", Var(x), Var(sub.cond))),
                        seq(*self.optimize_stmt(If(z, sub.body))),
                    )
                )
            else:
                result.append(If(x, seq(*self.optimize_stmt(sub))))
        return result

    def optimize_seq(self, stmt: Stmt) -> Stmt:
        result: List[Stmt] = []
        for sub in seq_list(stmt):
            result.extend(self.optimize_stmt(sub))
        return seq(*result)


def spire_optimize(stmt: Stmt) -> Stmt:
    """Apply both conditional flattening and conditional narrowing."""
    return _Rewriter(flatten=True, narrow=True, used_names=free_vars(stmt)).optimize_seq(stmt)


def flatten_only(stmt: Stmt) -> Stmt:
    """Apply conditional flattening (and if-over-seq distribution) only."""
    return _Rewriter(flatten=True, narrow=False, used_names=free_vars(stmt)).optimize_seq(stmt)


def narrow_only(stmt: Stmt) -> Stmt:
    """Apply conditional narrowing (and if-over-seq distribution) only."""
    return _Rewriter(flatten=False, narrow=True, used_names=free_vars(stmt)).optimize_seq(stmt)
