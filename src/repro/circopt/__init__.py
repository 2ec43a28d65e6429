"""Baseline quantum circuit optimizers (the comparisons of Section 8.3)."""

from .base import (
    CircuitOptimizer,
    OptimizerResult,
    gates_commute,
    get_optimizer,
    optimizer_names,
)
from .cancel import CliffordTPeephole, cancel_circuit, cancel_pass, cancel_to_fixpoint
from .phase_poly import RotationMerging, fold_phases
from .search import GreedySearch
from .toffoli_cancel import ToffoliCancel
from .zxlike import ZXLike

__all__ = [
    "CircuitOptimizer",
    "OptimizerResult",
    "gates_commute",
    "get_optimizer",
    "optimizer_names",
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
