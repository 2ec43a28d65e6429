"""Decomposition correctness: Figures 5 and 6, verified by statevector."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite import BenchmarkRunner
from repro.benchsuite.programs import SOURCES, is_unsized
from repro.circuit import (
    Circuit,
    DecompositionCache,
    Gate,
    GateKind,
    Register,
    cnot,
    h,
    mcx,
    t_cost_of_mcx,
    to_clifford_t,
    to_toffoli,
    toffoli,
)
from repro.circuit.decompose import (
    _AncillaPool,
    decompose_controlled_h,
    decompose_mcx_to_toffoli,
    decompose_swap,
    decompose_toffoli_to_clifford_t,
    expanded_t_count,
)
from repro.circuit.gates import reset_shared_gates
from repro.circuit.statevector import (
    circuits_equivalent,
    equivalent_on_clean_ancillas,
    unitaries_equal,
    unitary,
)
from repro.config import CompilerConfig


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


# ------------------------------------------------- per-row Toffoli expansion
def _to_toffoli_per_gate(circuit: Circuit) -> Circuit:
    """Oracle: ``to_toffoli`` as a loop over every gate application, with
    one ancilla pool shared by the whole gate sequence."""
    pool = _AncillaPool(circuit.num_qubits)
    out = []
    for gate in circuit.gates:
        if gate.kind is GateKind.MCX:
            decompose_mcx_to_toffoli(gate, pool, out)
        elif gate.kind is GateKind.H:
            decompose_controlled_h(gate, pool, out)
        elif gate.kind is GateKind.SWAP:
            for g in decompose_swap(gate):
                decompose_mcx_to_toffoli(g, pool, out)
        else:
            out.append(gate)
    result = Circuit(max(circuit.num_qubits, pool.used), out, dict(circuit.registers))
    if pool.used > circuit.num_qubits:
        result.add_register(
            Register("%mcx_ancilla", circuit.num_qubits, pool.used - circuit.num_qubits)
        )
    return result


@st.composite
def _mcx_level_gates(draw, num_qubits: int = 8):
    """A few distinct MCX, controlled-H, SWAP and phase gates (controls in
    any order), applied many times each, some as equal but distinct
    objects."""
    def one_gate():
        qubits = draw(
            st.lists(st.integers(0, num_qubits - 1), min_size=1, max_size=6, unique=True)
        )
        kind = draw(st.sampled_from([GateKind.MCX, GateKind.H, GateKind.SWAP, GateKind.T]))
        if kind is GateKind.SWAP and len(qubits) >= 2:
            return Gate(kind, tuple(qubits[2:]), tuple(qubits[:2]))
        if kind is GateKind.T:
            return Gate(kind, (), (qubits[0],))
        if kind is GateKind.SWAP:
            kind = GateKind.MCX
        return Gate(kind, tuple(qubits[1:]), (qubits[0],))

    distinct = [one_gate() for _ in range(draw(st.integers(1, 6)))]
    picks = draw(st.lists(st.integers(0, len(distinct) - 1), max_size=30))
    copies = [Gate(g.kind, g.controls, g.targets) for g in distinct]
    return [distinct[i] if draw(st.booleans()) else copies[i] for i in picks]


class TestPerRowExpansion:
    @given(_mcx_level_gates())
    @settings(max_examples=80, deadline=None)
    def test_matches_per_gate_loop(self, gates):
        circuit = Circuit(8, gates)
        circuit.add_register(Register("acc", 0, 3))
        got, expected = to_toffoli(circuit), _to_toffoli_per_gate(circuit)
        assert got.gates == expected.gates
        assert got.num_qubits == expected.num_qubits
        assert got.registers == expected.registers
        assert circuit.registers == {"acc": Register("acc", 0, 3)}

    def test_empty_circuit(self):
        empty = Circuit(3, [])
        assert to_toffoli(empty) == _to_toffoli_per_gate(empty) == empty


_SEED_CONFIG = CompilerConfig(word_width=3, addr_width=3, heap_cells=6)


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_table1_tables_hold_distinct_gate_values(name):
    """Every gate builder shares one instance per value, so the compiled
    circuit and both of its decompositions hold one table row per
    distinct gate value."""
    # start from an empty intern table, so it cannot fill and start over
    # in the middle of this program (see repro.circuit.gates)
    reset_shared_gates()
    runner = BenchmarkRunner(_SEED_CONFIG)
    depth = None if is_unsized(name) else 2
    for optimization in ("none", "spire"):
        circuit = runner.compile(name, depth, optimization).circuit
        toffoli_level = to_toffoli(circuit)
        for level in (circuit, toffoli_level, to_clifford_t(circuit)):
            assert len(level.table) == len(set(level.table)), (optimization, level)
        assert toffoli_level == _to_toffoli_per_gate(circuit)
