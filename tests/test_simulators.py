"""Tests for the classical and statevector simulators and the .qc format."""

import math

import numpy as np
import pytest

from repro.circuit import Circuit, Register, cnot, h, mcx, s, swap, t, toffoli, x, z
from repro.circuit import classical_sim, qc_format
from repro.circuit.statevector import (
    basis_state,
    circuits_equivalent,
    run,
    states_equal,
    unitary,
    zero_state,
)
from repro.errors import ParseError, SimulationError


class TestClassicalSim:
    def test_x_flips(self):
        assert classical_sim.run(Circuit(1, [x(0)]), 0) == 1

    def test_cnot_controlled(self):
        circ = Circuit(2, [cnot(0, 1)])
        assert classical_sim.run(circ, 0b01) == 0b11
        assert classical_sim.run(circ, 0b00) == 0b00

    def test_toffoli(self):
        circ = Circuit(3, [toffoli(0, 1, 2)])
        assert classical_sim.run(circ, 0b011) == 0b111
        assert classical_sim.run(circ, 0b001) == 0b001

    def test_mcx_many_controls(self):
        circ = Circuit(5, [mcx([0, 1, 2, 3], 4)])
        assert classical_sim.run(circ, 0b01111) == 0b11111

    def test_swap(self):
        circ = Circuit(2, [swap(0, 1)])
        assert classical_sim.run(circ, 0b01) == 0b10

    def test_controlled_swap(self):
        gate = swap(1, 2).with_extra_controls([0])
        circ = Circuit(3, [gate])
        assert classical_sim.run(circ, 0b011) == 0b101
        assert classical_sim.run(circ, 0b010) == 0b010

    def test_phase_gates_fix_basis_states(self):
        circ = Circuit(1, [t(0), s(0), z(0)])
        assert classical_sim.run(circ, 1) == 1

    def test_h_rejected(self):
        with pytest.raises(SimulationError):
            classical_sim.run(Circuit(1, [h(0)]), 0)

    def test_register_pack_unpack(self):
        circ = Circuit(4, [cnot(0, 2)])
        circ.add_register(Register("a", 0, 2))
        circ.add_register(Register("b", 2, 2))
        out = classical_sim.run_on_registers(circ, {"a": 0b01})
        assert out["b"] == 0b01

    def test_pack_rejects_oversized_value(self):
        circ = Circuit(2, [])
        circ.add_register(Register("a", 0, 2))
        with pytest.raises(SimulationError):
            classical_sim.pack({"a": 4}, circ)

    def test_pack_rejects_unknown_register(self):
        with pytest.raises(SimulationError):
            classical_sim.pack({"zz": 1}, Circuit(1, []))


class TestStatevector:
    def test_h_creates_superposition(self):
        state = run(Circuit(1, [h(0)]))
        assert np.allclose(np.abs(state) ** 2, [0.5, 0.5])

    def test_hh_is_identity(self):
        assert circuits_equivalent(Circuit(1, [h(0), h(0)]), Circuit(1, []))

    def test_t_phase(self):
        state = run(Circuit(1, [t(0)]), basis_state(1, 1))
        assert np.allclose(state[1], np.exp(1j * math.pi / 4))

    def test_z_eq_ss(self):
        assert circuits_equivalent(Circuit(1, [s(0), s(0)]), Circuit(1, [z(0)]))

    def test_t4_eq_z(self):
        assert circuits_equivalent(Circuit(1, [t(0)] * 4), Circuit(1, [z(0)]))

    def test_x_eq_hzh(self):
        assert circuits_equivalent(
            Circuit(1, [h(0), z(0), h(0)]), Circuit(1, [x(0)])
        )

    def test_cnot_matrix(self):
        mat = unitary(Circuit(2, [cnot(0, 1)]))
        # qubit 0 is the low bit: |01> (=1) maps to |11> (=3)
        assert np.isclose(mat[3, 1], 1)
        assert np.isclose(mat[0, 0], 1)

    def test_states_equal_up_to_phase(self):
        a = zero_state(2)
        b = np.exp(1j * 0.7) * a
        assert states_equal(a, b)

    def test_states_differ(self):
        assert not states_equal(basis_state(1, 0), basis_state(1, 1))

    def test_bad_state_size_rejected(self):
        with pytest.raises(SimulationError):
            run(Circuit(2, [x(0)]), zero_state(1))

    def test_classical_agreement_on_mcx_circuits(self):
        circ = Circuit(3, [x(0), toffoli(0, 1, 2), cnot(0, 1), x(1)])
        for bits in range(8):
            expected = classical_sim.run(circ, bits)
            state = run(circ, basis_state(3, bits))
            assert states_equal(state, basis_state(3, expected))

    def test_append_after_run_invalidates_cached_plan(self):
        # plans are cached per circuit object; an append must not replay
        # the plan of the shorter circuit
        circ = Circuit(2, [x(0)])
        s0 = zero_state(2)
        assert np.allclose(run(circ, s0), basis_state(2, 0b01))
        circ.append(x(1))
        assert np.allclose(run(circ, s0), basis_state(2, 0b11))


class TestQcFormat:
    def test_roundtrip(self):
        circ = Circuit(3, [toffoli(0, 1, 2), h(0), t(1), x(2), cnot(1, 0)])
        text = qc_format.dumps(circ)
        parsed = qc_format.loads(text)
        assert parsed.gates == circ.gates
        assert parsed.num_qubits == circ.num_qubits

    def test_register_names_used(self):
        circ = Circuit(2, [cnot(0, 1)])
        circ.add_register(Register("acc", 0, 2))
        text = qc_format.dumps(circ)
        assert "acc_0" in text and "acc_1" in text

    def test_tdg_spelling(self):
        from repro.circuit import tdg

        text = qc_format.dumps(Circuit(1, [tdg(0)]))
        assert "T* q0" in text

    def test_parse_rejects_unknown_wire(self):
        with pytest.raises(ParseError):
            qc_format.loads(".v a\nBEGIN\ntof b\nEND")

    def test_parse_rejects_unknown_gate(self):
        with pytest.raises(ParseError):
            qc_format.loads(".v a\nBEGIN\nfrobnicate a\nEND")

    def test_file_roundtrip(self, tmp_path):
        circ = Circuit(2, [cnot(0, 1), h(1)])
        path = tmp_path / "circ.qc"
        qc_format.dump(circ, str(path))
        assert qc_format.load(str(path)).gates == circ.gates

    def test_comments_and_blank_lines_ignored(self):
        text = ".v a b\n\n# comment\nBEGIN\ntof a b\nEND\n"
        parsed = qc_format.loads(text)
        assert parsed.gates == [cnot(0, 1)]


class TestSparseCanonicalization:
    def test_canonical_fixes_global_phase(self):
        from repro.circuit.statevector import canonical_sparse

        state = {0: 0.5 + 0.5j, 3: -0.5 - 0.5j}
        canon = canonical_sparse(state)
        anchor = canon[0]
        assert abs(anchor.imag) < 1e-12 and anchor.real > 0

    def test_prunes_small_amplitudes(self):
        from repro.circuit.statevector import canonical_sparse

        canon = canonical_sparse({0: 1.0, 5: 1e-15})
        assert 5 not in canon

    def test_states_equal_up_to_phase(self):
        import cmath

        from repro.circuit.statevector import sparse_states_equal

        a = {0: 1 / math.sqrt(2), 2: 1 / math.sqrt(2)}
        phase = cmath.exp(1j * 0.73)
        b = {idx: amp * phase for idx, amp in a.items()}
        assert sparse_states_equal(a, b)

    def test_states_differ_in_amplitude(self):
        from repro.circuit.statevector import sparse_states_equal

        a = {0: 1 / math.sqrt(2), 2: 1 / math.sqrt(2)}
        b = {0: 1 / math.sqrt(2), 2: -1 / math.sqrt(2)}
        assert not sparse_states_equal(a, b)

    def test_states_differ_in_support(self):
        from repro.circuit.statevector import sparse_states_equal

        assert not sparse_states_equal({0: 1.0}, {1: 1.0})

    def test_matches_dense_up_to_phase_on_h_circuit(self):
        from repro.circuit.statevector import (
            sparse_run,
            sparse_states_equal,
            sparse_to_dense,
        )

        circ = Circuit(3, [h(0), cnot(0, 1), t(1), h(2), z(2)])
        amps = sparse_run(circ, 0b100)
        dense = run(circ, basis_state(3, 0b100))
        assert states_equal(dense, sparse_to_dense(amps, 3))
        again = sparse_run(circ, 0b100)
        assert sparse_states_equal(amps, again)
