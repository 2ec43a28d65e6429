"""Circuit optimizers: the gate passes of the pass pipeline.

The evaluation of Section 8.3 compares eight existing circuit optimizers.
This package implements one optimizer per *strategy* the paper identifies,
named by strategy with the paper's tools noted:

========================  =====================================================
name                      models (paper Section 8.3/8.5)
========================  =====================================================
``peephole``              Qiskit ``transpile(optimization_level=3)``, Pytket
                          FullPeepholeOptimise — adjacent-gate rewrites on the
                          decomposed Clifford+T circuit
``toffoli-cancel``        Feynman ``-mctExpand`` — cancel Toffoli gates
                          *before* translating to Clifford+T
``rotation-merge``        Feynman ``-toCliffordT``, VOQC, Pytket ZX — Nam-style
                          rotation merging over the decomposed circuit
``zx-like``               QuiZX ``full_simp`` — long-range structure discovery
                          at higher compile cost (Toffoli cancel + rotation
                          merge + peephole)
``greedy-search``         Quartz / QUESO — rotation-merge preprocessing
                          followed by a budgeted search phase
========================  =====================================================

Each optimizer class *is* its gate pass: it is registered in the pass
registry under its name (:func:`~repro.passes.register_pass`), built by
:func:`~repro.passes.make_pass` from its constructor parameters
(``peephole(window=32)``), and timed by the pass manager's
:class:`~repro.passes.PassRecord`.  Every optimizer consumes an
**MCX-level** circuit (the Tower compiler's output) and produces a
**Clifford+T** circuit; ``t_count`` of the result is the metric the
evaluation reports.
"""

from __future__ import annotations

from ..circuit.circuit import Circuit
from ..circuit.decompose import DecompositionCache
from ..passes.base import (
    CLIFFORD_T_OUTPUT,
    DETERMINISTIC,
    GATES,
    Pass,
    SEMANTICS_PRESERVING,
    TCOUNT_NONINCREASING,
)


class CircuitOptimizer(Pass):
    """A gate pass: subclasses implement :meth:`run` on an MCX-level circuit."""

    stage = GATES
    invariants = frozenset(
        {
            SEMANTICS_PRESERVING,
            TCOUNT_NONINCREASING,
            CLIFFORD_T_OUTPUT,
            DETERMINISTIC,
        }
    )
    #: the tools from the paper this strategy models
    models: str = ""

    def run(
        self, circuit: Circuit, cache: DecompositionCache
    ) -> Circuit:  # pragma: no cover - abstract
        """The optimized circuit.  ``cache`` holds the Toffoli and
        Clifford+T expansions, shared by every pass that expands the same
        circuit."""
        raise NotImplementedError

    def apply(self, ctx) -> None:
        ctx.circuit = self.run(ctx.circuit, ctx.decomposition_cache)

    @classmethod
    def describe(cls) -> str:
        """The docstring summary plus the tools the strategy models."""
        return f"{super().describe()} Models {cls.models}."
