"""Budgeted search-based optimization — the Quartz/QUESO stand-in.

Appendix G describes Quartz and QUESO: a *preprocessing* phase (rotation
merging and greedy CCZ decomposition) followed by an open-ended
*search* phase over rewrite rules whose runtime is bounded only by an
explicit timeout, and whose additional T-gate savings over preprocessing
were nil for these benchmarks ("the Toffoli decomposition ... is known to
be optimal, so inside each CCZ gate, Quartz does not have any chance to
optimize it further").

:class:`GreedySearch` reproduces that behaviour: preprocessing is a phase
fold; the search phase greedily retries ever-wider cancellation windows
until the time budget expires or a fixpoint is reached.  T-counts typically
match preprocessing; H/CNOT counts can shrink — the same pattern as
Tables 5 and 6.
"""

from __future__ import annotations

import time

from ..circuit.circuit import Circuit
from ..circuit.decompose import DecompositionCache
from ..passes.base import DETERMINISTIC, register_pass
from .base import CircuitOptimizer
from .cancel import cancel_circuit
from .phase_poly import fold_phases


@register_pass
class GreedySearch(CircuitOptimizer):
    """Rotation-merge preprocessing plus a time-budgeted search phase.

    Models Quartz and QUESO in the evaluation (Appendix G).  The
    ``timeout`` bounds only the search phase, as in Quartz, so the
    result depends on the wall clock: the pass is not deterministic.
    """

    name = "greedy-search"
    models = "Quartz, QUESO"
    invariants = CircuitOptimizer.invariants - {DETERMINISTIC}

    def __init__(self, timeout: float = 5.0, preprocess_only: bool = False) -> None:
        self.timeout = timeout
        self.preprocess_only = preprocess_only

    def run(self, circuit: Circuit, cache: DecompositionCache) -> Circuit:
        # rotation merging: the Quartz preprocessing phase
        current = fold_phases(cache.clifford_t(circuit))
        if self.preprocess_only:
            return current
        deadline = time.monotonic() + self.timeout
        window = 16
        while time.monotonic() < deadline:
            next_circuit = fold_phases(cancel_circuit(current, window))
            if len(next_circuit) == len(current) and window > 1024:
                break
            current = next_circuit
            window *= 4
        return current
