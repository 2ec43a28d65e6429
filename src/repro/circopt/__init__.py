"""Baseline quantum circuit optimizers (the comparisons of Section 8.3).

Each optimizer class is a gate pass, registered in the pass registry when
this package is imported; build one by name with
:func:`repro.passes.make_pass`.
"""

from .base import CircuitOptimizer
from .cancel import CliffordTPeephole, cancel_circuit, cancel_pass, cancel_to_fixpoint
from .phase_poly import RotationMerging, fold_phases
from .search import GreedySearch
from .toffoli_cancel import ToffoliCancel
from .zxlike import ZXLike

__all__ = [
    "CircuitOptimizer",
    "CliffordTPeephole",
    "cancel_circuit",
    "cancel_pass",
    "cancel_to_fixpoint",
    "RotationMerging",
    "fold_phases",
    "GreedySearch",
    "ToffoliCancel",
    "ZXLike",
]
