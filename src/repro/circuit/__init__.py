"""Quantum circuit substrate: gates, circuits, decompositions, simulators.

The MCX level models the idealized architecture of Section 5; the Clifford+T
level models the surface-code architecture.  Decompositions follow Figures 5
and 6 of the paper.
"""

from .circuit import Circuit, Register
from .decompose import (
    DecompositionCache,
    decompose_mcx_to_toffoli,
    decompose_toffoli_to_clifford_t,
    expand_toffolis,
    expanded_t_count,
    to_clifford_t,
    to_toffoli,
)
from .snapshot import SnapshotError, dump_bytes, load_bytes
from .gates import (
    Gate,
    GateKind,
    cnot,
    h,
    mcx,
    phase_gate,
    s,
    sdg,
    swap,
    t,
    t_cost_of_controlled_h,
    t_cost_of_mcx,
    tdg,
    toffoli,
    toffoli_count_for_mcx,
    x,
    z,
)

__all__ = [
    "Circuit",
    "Register",
    "Gate",
    "GateKind",
    "SnapshotError",
    "dump_bytes",
    "load_bytes",
    "DecompositionCache",
    "expand_toffolis",
    "cnot",
    "h",
    "mcx",
    "phase_gate",
    "s",
    "sdg",
    "swap",
    "t",
    "tdg",
    "toffoli",
    "x",
    "z",
    "t_cost_of_mcx",
    "t_cost_of_controlled_h",
    "toffoli_count_for_mcx",
    "decompose_mcx_to_toffoli",
    "decompose_toffoli_to_clifford_t",
    "to_toffoli",
    "to_clifford_t",
    "expanded_t_count",
]
