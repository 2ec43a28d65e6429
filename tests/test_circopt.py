"""Tests for the circuit-optimizer baselines (Section 8.3 stand-ins)."""

import pytest

from repro.circopt import cancel_to_fixpoint, fold_phases
from repro.circuit import (
    Circuit,
    DecompositionCache,
    cnot,
    h,
    mcx,
    s,
    sdg,
    t,
    tdg,
    to_clifford_t,
    toffoli,
    x,
    z,
)
from repro.circuit.statevector import circuits_equivalent, equivalent_on_clean_ancillas
from repro.compiler import compile_source
from repro.config import CompilerConfig
from repro.passes import GATES, PassError, get_pass_class, make_pass, pass_names

CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=5)


def _optimize(name, circuit, **params):
    """Run one gate pass directly, with a fresh decomposition cache."""
    return make_pass(name, **params).run(circuit, DecompositionCache())


class TestCancellation:
    def test_adjacent_self_inverse_pair(self):
        assert cancel_to_fixpoint([cnot(0, 1), cnot(0, 1)]) == []

    def test_t_tdg_pair(self):
        assert cancel_to_fixpoint([t(0), tdg(0)]) == []

    def test_cancellation_through_commuting_gates(self):
        gates = [toffoli(0, 1, 2), cnot(3, 4), toffoli(0, 1, 2)]
        assert cancel_to_fixpoint(gates) == [cnot(3, 4)]

    def test_blocked_cancellation_survives(self):
        gates = [cnot(0, 1), h(1), cnot(0, 1)]
        assert len(cancel_to_fixpoint(gates)) == 3

    def test_phase_merging(self):
        assert cancel_to_fixpoint([t(0), t(0)]) == [s(0)]
        assert cancel_to_fixpoint([s(0), s(0)]) == [z(0)]
        assert cancel_to_fixpoint([t(0), s(0), t(0)]) == [z(0)]

    def test_cascading_cancellation(self):
        # mirrored ladder: everything cancels pairwise inward-out
        ladder = [toffoli(0, 1, 4), toffoli(4, 2, 5), toffoli(5, 3, 6)]
        gates = ladder + [x(7)] + list(reversed(ladder))
        assert cancel_to_fixpoint(gates) == [x(7)]

    def test_preserves_semantics(self):
        gates = [t(0), cnot(0, 1), cnot(0, 1), tdg(0), h(1), h(1), t(0)]
        reduced = cancel_to_fixpoint(gates)
        assert circuits_equivalent(Circuit(2, gates), Circuit(2, reduced))


class TestPhaseFolding:
    def test_merges_rotations_on_same_parity(self):
        # T on x, CNOTs shuffle, T on same parity elsewhere
        gates = [t(0), cnot(0, 1), tdg(1), cnot(0, 1)]
        # parity of qubit 1 after CNOT is x0^x1; tdg applies to that parity,
        # not x0 — nothing merges, semantics preserved.
        folded = fold_phases(Circuit(2, gates))
        assert circuits_equivalent(Circuit(2, gates), folded)

    def test_cancels_t_tdg_across_cnots(self):
        gates = [t(0), cnot(1, 0), cnot(1, 0), tdg(0)]
        folded = fold_phases(Circuit(2, gates))
        assert folded.t_count() == 0
        assert circuits_equivalent(Circuit(2, gates), folded)

    def test_merges_across_unrelated_h(self):
        # H on qubit 1 does not cut parities on qubit 0
        gates = [t(0), h(1), tdg(0)]
        folded = fold_phases(Circuit(2, gates))
        assert folded.t_count() == 0

    def test_h_cuts_own_wire(self):
        gates = [t(0), h(0), tdg(0)]
        folded = fold_phases(Circuit(1, gates))
        assert folded.t_count() == 2

    def test_adjacent_toffoli_pair_needs_hh_removal_first(self):
        # Figure 17: the decomposed double-Toffoli only folds to zero T
        # after the inner H·H pair is cancelled.
        pair = Circuit(3, [toffoli(0, 1, 2), toffoli(0, 1, 2)])
        decomposed = to_clifford_t(pair)
        folded_only = fold_phases(decomposed)
        assert folded_only.t_count() > 0  # rotation merging alone: stuck
        cancelled = cancel_to_fixpoint(decomposed.gates)
        folded = fold_phases(Circuit(decomposed.num_qubits, cancelled))
        assert folded.t_count() == 0  # after peephole HH removal: all T gone

    def test_preserves_semantics_on_mixed_circuit(self):
        gates = [
            h(0), t(0), cnot(0, 1), t(1), x(1), tdg(1), cnot(0, 1), s(0), h(1), t(1),
        ]
        folded = fold_phases(Circuit(2, gates))
        assert circuits_equivalent(Circuit(2, gates), folded)

    def test_x_conjugation_negates_phase(self):
        gates = [x(0), t(0), x(0), t(0)]
        folded = fold_phases(Circuit(1, gates))
        # exp(i pi/4 (1-x)) * exp(i pi/4 x) = global phase: both T's vanish
        assert folded.t_count() == 0
        assert circuits_equivalent(Circuit(1, gates), folded)


class TestOptimizers:
    def test_registry(self):
        assert {
            name for name in pass_names() if get_pass_class(name).stage == GATES
        } == {
            "peephole",
            "toffoli-cancel",
            "rotation-merge",
            "zx-like",
            "greedy-search",
        }
        with pytest.raises(PassError):
            make_pass("nope")

    @pytest.mark.parametrize("name", ["peephole", "toffoli-cancel", "rotation-merge", "zx-like"])
    def test_output_is_clifford_t(self, name, length_source):
        cp = compile_source(length_source, "length", size=2, config=CFG)
        assert _optimize(name, cp.circuit).is_clifford_t()

    @pytest.mark.parametrize("name", ["peephole", "toffoli-cancel", "rotation-merge", "zx-like"])
    def test_preserves_semantics_small(self, name):
        circ = Circuit(
            4,
            [
                mcx([0, 1, 2], 3),
                toffoli(0, 1, 2),
                toffoli(0, 1, 2),
                cnot(0, 1),
                mcx([0, 1, 2], 3),
            ],
        )
        assert equivalent_on_clean_ancillas(circ, _optimize(name, circ))

    def test_toffoli_cancel_removes_redundant_mcx_pairs(self):
        circ = Circuit(4, [mcx([0, 1, 2], 3), mcx([0, 1, 2], 3)])
        assert _optimize("toffoli-cancel", circ).t_count() == 0

    def test_peephole_cannot_cancel_decomposed_toffoli_pair(self):
        # the Figure 17 phenomenon: Qiskit-style peephole fails
        circ = Circuit(3, [toffoli(0, 1, 2), toffoli(0, 1, 2)])
        assert _optimize("toffoli-cancel", circ).t_count() == 0
        assert _optimize("peephole", circ).t_count() > 0

    def test_greedy_search_preprocess_only(self, length_source):
        cp = compile_source(length_source, "length", size=2, config=CFG)
        result = _optimize(
            "greedy-search", cp.circuit, timeout=0.0, preprocess_only=True
        )
        assert result.is_clifford_t()

    @pytest.mark.slow
    def test_greedy_search_respects_budget(self, length_source):
        # wall-clock-bounded search phase: slow tier (timing-dependent)
        cp = compile_source(length_source, "length", size=2, config=CFG)
        assert _optimize("greedy-search", cp.circuit, timeout=0.2).is_clifford_t()
