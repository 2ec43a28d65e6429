"""Decomposition correctness: Figures 5 and 6, verified by statevector."""

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    DecompositionCache,
    GateKind,
    cnot,
    h,
    mcx,
    t_cost_of_mcx,
    to_clifford_t,
    to_toffoli,
    toffoli,
)
from repro.circuit.decompose import (
    decompose_toffoli_to_clifford_t,
    expanded_t_count,
)
from repro.circuit.statevector import (
    circuits_equivalent,
    equivalent_on_clean_ancillas,
    unitaries_equal,
    unitary,
)


class TestToffoliDecomposition:
    def test_seven_t_gates(self):
        gates = decompose_toffoli_to_clifford_t(toffoli(0, 1, 2))
        t_gates = [g for g in gates if g.kind in (GateKind.T, GateKind.TDG)]
        assert len(t_gates) == 7

    def test_unitary_equals_toffoli(self):
        reference = Circuit(3, [toffoli(0, 1, 2)])
        decomposed = Circuit(3, decompose_toffoli_to_clifford_t(toffoli(0, 1, 2)))
        assert circuits_equivalent(reference, decomposed)

    def test_rejects_non_toffoli(self):
        from repro.errors import LoweringError

        with pytest.raises(LoweringError):
            decompose_toffoli_to_clifford_t(cnot(0, 1))


class TestMCXLadder:
    @pytest.mark.parametrize("controls", [3, 4, 5])
    def test_ladder_unitary_matches_mcx(self, controls):
        gate = mcx(range(controls), controls)
        reference = Circuit(controls + 1, [gate])
        expanded = to_toffoli(reference)
        # ancillas (above controls+1) start clean and must end clean
        assert equivalent_on_clean_ancillas(reference, expanded)

    @pytest.mark.parametrize("controls", [2, 3, 4, 5])
    def test_toffoli_count_matches_figure5(self, controls):
        gate = mcx(range(controls), controls)
        expanded = to_toffoli(Circuit(controls + 1, [gate]))
        toffolis = [g for g in expanded if len(g.controls) == 2]
        assert len(toffolis) == 2 * (controls - 2) + 1 if controls > 2 else 1

    def test_cnot_and_x_pass_through(self):
        circ = Circuit(2, [cnot(0, 1)])
        assert to_toffoli(circ).gates == [cnot(0, 1)]


class TestControlledH:
    def test_ch_unitary(self):
        reference = Circuit(2, [h(1, controls=[0])])
        expanded = to_clifford_t(reference)
        assert expanded.is_clifford_t()
        assert circuits_equivalent(reference, expanded)

    def test_cch_unitary(self):
        reference = Circuit(3, [h(2, controls=[0, 1])])
        expanded = to_clifford_t(reference)
        assert expanded.is_clifford_t()
        assert circuits_equivalent(reference, expanded)

    def test_plain_h_untouched(self):
        circ = Circuit(1, [h(0)])
        assert to_clifford_t(circ).gates == [h(0)]


class TestFullPipeline:
    @pytest.mark.parametrize("controls", [0, 1, 2, 3, 4, 5, 6])
    def test_t_count_matches_analytic_cost(self, controls):
        gate = mcx(range(controls), controls)
        circ = Circuit(controls + 1, [gate])
        assert expanded_t_count(circ) == t_cost_of_mcx(controls)
        assert circ.t_complexity() == t_cost_of_mcx(controls)

    def test_mixed_circuit_t_complexity_matches_expansion(self):
        circ = Circuit(
            5,
            [
                mcx([0, 1, 2], 3),
                cnot(0, 4),
                h(2, controls=[0]),
                toffoli(1, 2, 4),
            ],
        )
        assert to_clifford_t(circ).t_count() == circ.t_complexity()

    def test_clifford_t_output_is_clifford_t(self):
        circ = Circuit(5, [mcx([0, 1, 2, 3], 4)])
        assert to_clifford_t(circ).is_clifford_t()

    def test_ancillas_shared_across_gates(self):
        one = to_toffoli(Circuit(5, [mcx([0, 1, 2, 3], 4)]))
        two = to_toffoli(Circuit(5, [mcx([0, 1, 2, 3], 4)] * 2))
        assert two.num_qubits == one.num_qubits

    def test_semantic_equivalence_of_sequences(self):
        # two different MCX gates in sequence survive full decomposition
        circ = Circuit(4, [mcx([0, 1], 2), mcx([0, 1, 2], 3)])
        assert equivalent_on_clean_ancillas(circ, to_clifford_t(circ))


class TestDecompositionCache:
    def test_append_after_lookup_misses(self):
        # entries are keyed by circuit identity; an append must not serve
        # the decomposition of the shorter circuit
        cache = DecompositionCache()
        circ = Circuit(3, [toffoli(0, 1, 2)])
        assert cache.clifford_t(circ).t_count() == 7
        assert cache.clifford_t(circ) is cache.clifford_t(circ)
        circ.append(toffoli(0, 1, 2))
        assert cache.toffoli(circ).gates == [toffoli(0, 1, 2)] * 2
        assert cache.clifford_t(circ).t_count() == 14
