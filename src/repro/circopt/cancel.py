"""Adjacent-gate cancellation passes.

:func:`cancel_circuit` runs the shared engine to fixpoint: a stack-based
sweep that, for each incoming gate, scans backwards over already-emitted
gates (through ones it commutes with, up to a window) looking for an
inverse partner to annihilate or an uncontrolled phase gate on the same
wire to merge with.  The whole fixpoint runs in the compiled kernel of
:mod:`repro._kernels` over the circuit's row column; the property tests
check it gate for gate against the frozen sweep in :mod:`repro.reference`.

:class:`CliffordTPeephole` applies the sweep to the fully decomposed
Clifford+T circuit — this is the strategy of Qiskit and Pytket's peephole
mode, and, as Section 8.5 explains via Figure 17, it *cannot* remove the
residue of adjacent Toffoli gates once they are decomposed, so it does not
repair the asymptotic T-complexity.  The test suite and benchmarks confirm
this behaviour.
"""

from __future__ import annotations

from typing import List

from ..circuit.circuit import Circuit
from ..circuit.decompose import DecompositionCache
from ..circuit.gates import Gate
from ..passes.base import register_pass
from .base import CircuitOptimizer
from .. import _kernels


def cancel_circuit(circuit: Circuit, window: int = 64, max_passes: int = 20) -> Circuit:
    """Run the cancellation sweep over ``circuit`` until no gate is removed
    (at most ``max_passes`` sweeps); the result keeps the circuit's width
    and registers."""
    return _kernels.cancel_fixpoint(circuit, window, max_passes)


def cancel_pass(gates: List[Gate], window: int = 64) -> List[Gate]:
    """One stack sweep of cancellation and phase merging."""
    return cancel_circuit(Circuit(0, gates), window, 1).gates


def cancel_to_fixpoint(
    gates: List[Gate], window: int = 64, max_passes: int = 20
) -> List[Gate]:
    """:func:`cancel_circuit` over a bare gate list."""
    return cancel_circuit(Circuit(0, gates), window, max_passes).gates


@register_pass
class CliffordTPeephole(CircuitOptimizer):
    """Adjacent-gate cancellation on the decomposed Clifford+T circuit.

    Models Qiskit ``transpile(optimization_level=3)`` and Pytket
    ``FullPeepholeOptimise`` in the evaluation of Section 8.3.
    """

    name = "peephole"
    models = "Qiskit, Pytket peephole"

    def __init__(self, window: int = 64) -> None:
        self.window = window

    def run(self, circuit: Circuit, cache: DecompositionCache) -> Circuit:
        return cancel_circuit(cache.clifford_t(circuit), self.window)
