"""A ZX-calculus-strength pipeline — the QuiZX stand-in.

Section 8.5 observes that QuiZX "discovers long-range circuit structure at
the expense of compile time": it is one of only two tested optimizers that
recover asymptotically efficient circuits, and it achieves the best constant
factors, at 14x-6500x the compile time of Feynman.

A full ZX-calculus rewriting engine is out of scope (and not needed for the
paper's claims); this pipeline reproduces QuiZX's *observed* behaviour by
combining every structural weapon in this package, each run to fixpoint with
wide scan windows:

1. Toffoli-level cancellation (captures conditional flattening, Figure 16),
2. Clifford+T decomposition,
3. phase folding (rotation merging across unbounded gate ranges),
4. a final wide peephole.
"""

from __future__ import annotations

from ..circuit.circuit import Circuit
from ..circuit.decompose import DecompositionCache, expand_toffolis
from ..passes.base import register_pass
from .base import CircuitOptimizer
from .cancel import cancel_circuit
from .phase_poly import fold_phases


@register_pass
class ZXLike(CircuitOptimizer):
    """Toffoli cancel + rotation merge + peephole, with wide windows.

    Models QuiZX ``full_simp`` in the evaluation.
    """

    name = "zx-like"
    models = "QuiZX (PyZX)"

    def __init__(self, window: int = 256) -> None:
        self.window = window

    def run(self, circuit: Circuit, cache: DecompositionCache) -> Circuit:
        reduced = cancel_circuit(cache.toffoli(circuit), self.window)
        current = expand_toffolis(reduced)
        for _ in range(4):
            before = current.t_count()
            current = cancel_circuit(fold_phases(current), self.window)
            if current.t_count() == before:
                break
        return current
