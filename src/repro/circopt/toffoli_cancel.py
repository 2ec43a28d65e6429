"""Toffoli-level cancellation — the Feynman ``-mctExpand`` strategy.

Section 8.5: "Feynman -mctExpand first cancels Toffoli gates in the circuit
before translating them to Clifford+T gates", and this is what lets it
capture the effect of conditional flattening (Figure 16): the MCX ladders of
consecutive gates that share a control context expand to mirrored Toffoli
prefixes, which annihilate under plain adjacent cancellation — *before* the
asymmetric Clifford+T decomposition (Figure 17) obscures them.

Pipeline: expand MCX to Toffoli (Figure 5) -> cancel adjacent/commuting
self-inverse gates to fixpoint -> decompose surviving Toffolis (Figure 6)
-> final light peephole.
"""

from __future__ import annotations

from ..circuit.circuit import Circuit
from ..circuit.decompose import DecompositionCache, expand_toffolis
from ..passes.base import register_pass
from .base import CircuitOptimizer
from .cancel import cancel_circuit


@register_pass
class ToffoliCancel(CircuitOptimizer):
    """Cancel Toffoli gates before Clifford+T translation.

    Models Feynman ``feynopt -mctExpand -O2`` in the evaluation.
    """

    name = "toffoli-cancel"
    models = "Feynman -mctExpand"

    def __init__(self, window: int = 64) -> None:
        self.window = window

    def run(self, circuit: Circuit, cache: DecompositionCache) -> Circuit:
        reduced = cancel_circuit(cache.toffoli(circuit), self.window)
        return cancel_circuit(expand_toffolis(reduced), self.window)
