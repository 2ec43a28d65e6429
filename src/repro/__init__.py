"""repro — reproduction of "The T-Complexity Costs of Error Correction for
Control Flow in Quantum Computation" (Yuan & Carbin, PLDI 2024).

The package provides the full stack the paper describes:

* :mod:`repro.lang` — the Tower quantum programming language (parser,
  types, bounded-recursion inliner);
* :mod:`repro.ir` — the core IR of Figure 13 (+ ``with-do``), its type
  system, reversal operator and reference interpreter;
* :mod:`repro.compiler` — compilation to MCX-level circuits with the
  register-allocation discipline of Appendix D;
* :mod:`repro.circuit` — circuits, Clifford+T decompositions (Figures 5/6),
  classical and statevector simulators, and the .qc format;
* :mod:`repro.cost` — the Section 5 cost model (paper constants) and an
  exact control-profile model that matches compiled circuits gate-for-gate;
* :mod:`repro.opt` — Spire's conditional flattening and narrowing
  (Section 6 / Figure 22);
* :mod:`repro.circopt` — circuit-optimizer baselines standing in for the
  eight tools of Section 8.3;
* :mod:`repro.benchsuite` — the Table 1 benchmark programs and the
  experiment harness regenerating every table and figure.

Quickstart::

    from repro import compile_source

    SRC = '''
    type list = (uint, ptr<list>);
    fun length[n](xs: ptr<list>, acc: uint) -> uint {
      with { let is_empty <- xs == null; } do
      if is_empty { let out <- acc; }
      else with {
        let temp <- default<list>;
        *xs <-> temp;
        let next <- temp.2;
        let r <- acc + 1;
      } do { let out <- length[n-1](next, r); }
      return out;
    }
    '''
    plain = compile_source(SRC, "length", size=5)
    spire = compile_source(SRC, "length", size=5, optimization="spire")
    print(plain.t_complexity(), "->", spire.t_complexity())
"""

from ._version import __version__
from .benchsuite import BenchmarkRunner, HeapImage
from .circuit import Circuit, Gate, GateKind, to_clifford_t, to_toffoli
from .compiler import CompiledProgram, compile_program, compile_source
from .config import DEFAULT, PAPER, TINY, CompilerConfig
from .cost import (
    ExactCostModel,
    PaperCostModel,
    exact_counts,
    fit_report,
    predicted_counts,
)
from .errors import ReproError
from .lang import lower_source, parse_program
from .opt import flatten_only, narrow_only, spire_optimize

__all__ = [
    "BenchmarkRunner",
    "HeapImage",
    "Circuit",
    "Gate",
    "GateKind",
    "to_clifford_t",
    "to_toffoli",
    "CompiledProgram",
    "compile_program",
    "compile_source",
    "DEFAULT",
    "PAPER",
    "TINY",
    "CompilerConfig",
    "ExactCostModel",
    "PaperCostModel",
    "exact_counts",
    "fit_report",
    "predicted_counts",
    "ReproError",
    "lower_source",
    "parse_program",
    "flatten_only",
    "narrow_only",
    "spire_optimize",
    "__version__",
]
