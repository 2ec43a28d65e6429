"""Tests for gate objects, shared gate instances and T-cost accounting."""

import random
import sys
import threading

import numpy as np
import pytest

from repro.circuit import (
    Circuit,
    Gate,
    GateKind,
    cnot,
    h,
    mcx,
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
from repro.circopt import cancel_circuit, fold_phases
from repro.circuit import gates
from repro.circuit.gates import phase_gate, reset_shared_gates
from repro.circuit.snapshot import dump_bytes, load_bytes


class TestConstruction:
    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError):
            cnot(1, 1)
        with pytest.raises(ValueError):
            mcx([0, 1], 1)

    def test_swap_needs_two_targets(self):
        with pytest.raises(ValueError):
            Gate(GateKind.SWAP, (), (1,))

    def test_single_target_enforced(self):
        with pytest.raises(ValueError):
            Gate(GateKind.H, (), (1, 2))

    def test_with_extra_controls(self):
        gate = cnot(0, 1).with_extra_controls([2, 3])
        assert gate.controls == (2, 3, 0)
        assert gate.target == 1

    def test_with_no_extra_controls_is_same(self):
        gate = cnot(0, 1)
        assert gate.with_extra_controls([]) is gate


class TestInverse:
    def test_t_inverse(self):
        assert t(0).inverse() == tdg(0)
        assert tdg(0).inverse() == t(0)
        assert s(0).inverse() == sdg(0)

    def test_self_inverse(self):
        for gate in [x(0), cnot(0, 1), toffoli(0, 1, 2), h(0), z(0), swap(0, 1)]:
            assert gate.inverse() == gate
            assert gate.is_self_inverse() or gate.kind is GateKind.MCX or True


class TestSharedInstances:
    """Every builder returns one instance per gate value, so a circuit's
    identity-interned table holds one row per distinct gate."""

    @pytest.fixture(autouse=True)
    def _fresh_table(self):
        # the bounded table starts over when it fills; start each test from
        # an empty one, so a reset cannot fall between two builder calls
        reset_shared_gates()

    def test_equal_builder_calls_are_identical(self):
        assert mcx([1, 2, 3], 4) is mcx((1, 2, 3), 4)
        assert mcx(range(1, 4), 4) is mcx(iter([1, 2, 3]), 4)
        assert h(2, controls=[0, 1]) is h(2, (0, 1))
        assert swap(0, 1) is swap(0, 1)
        # the memoized scalar builders share the same instances
        assert mcx([], 3) is x(3)
        assert mcx([0], 3) is cnot(0, 3)
        assert mcx([0, 1], 3) is toffoli(0, 1, 3)
        assert phase_gate(GateKind.T, 2) is t(2)

    def test_extra_controls_and_inverse_are_shared(self):
        gate = mcx([1, 2, 3], 4)
        controlled = gate.with_extra_controls((5,))
        assert controlled is gate.with_extra_controls([5])
        assert controlled is mcx([5, 1, 2, 3], 4)
        assert cnot(0, 1).with_extra_controls((2,)) is toffoli(2, 0, 1)
        assert gate.inverse() is gate
        assert t(0).inverse() is tdg(0)
        assert s(3).inverse().inverse() is s(3)
        # a directly constructed gate is a distinct object; its inverse
        # and controlled forms are the shared ones
        direct = Gate(GateKind.MCX, (1, 2, 3), (4,))
        assert direct == gate and direct is not gate
        assert direct.inverse() is gate
        assert direct.with_extra_controls((5,)) is controlled

    def test_reloaded_gates_are_shared(self):
        gates = [mcx([1, 2, 3], 4), h(0, controls=[1]), swap(2, 3), t(1), x(0)]
        circuit = Circuit(5, gates + [Gate(g.kind, g.controls, g.targets) for g in gates])
        assert len(circuit.table) == 2 * len(gates)
        restored = load_bytes(dump_bytes(circuit))
        assert restored == circuit
        assert restored.table == gates
        for got, expected in zip(restored.table, gates):
            assert got is expected

    def test_table_is_bounded_and_memos_start_over_with_it(self, monkeypatch):
        monkeypatch.setattr(gates, "SHARED_GATES_MAX", 4)
        old = x(0)
        for q in range(1, 10):
            mcx([0], q)  # the fifth and ninth new values reset the table
            assert len(gates._SHARED) <= 4
        new = x(0)
        # a reset value loses sharing only: equal, not identical
        assert new == old and new is not old
        # the memos started over with the table, so they agree again
        assert new is mcx([], 0)
        assert toffoli(0, 1, 2) is mcx([0, 1], 2)

    def test_threads_missing_on_one_value_share_one_instance(self, monkeypatch):
        values = [
            (tuple(random.Random(i).sample(range(10), i % 4)), 10 + i % 5)
            for i in range(400)
        ]
        results = {}

        def build(name, bound_checks):
            order = list(range(len(values)))
            random.Random(name).shuffle(order)
            barrier.wait(timeout=30)
            got = {}
            for i in order:
                got[i] = mcx(*values[i])
                if bound_checks and len(gates._SHARED) > gates.SHARED_GATES_MAX:
                    got["over"] = True
            results[name] = got

        def run_threads(bound_checks):
            threads = [
                threading.Thread(target=build, args=(n, bound_checks)) for n in range(8)
            ]
            previous = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
            finally:
                sys.setswitchinterval(previous)
            assert not any(thread.is_alive() for thread in threads)
            assert len(results) == 8

        # a fresh table holds every value: each gets exactly one instance
        barrier = threading.Barrier(8)
        run_threads(bound_checks=False)
        for i, (controls, target) in enumerate(values):
            first = results[0][i]
            assert (first.controls, first.targets) == (controls, (target,))
            assert all(results[n][i] is first for n in range(8))
        # a table far smaller than the values resets over and over, and
        # never holds more than its bound
        monkeypatch.setattr(gates, "SHARED_GATES_MAX", 16)
        reset_shared_gates()
        results.clear()
        barrier = threading.Barrier(8)
        run_threads(bound_checks=True)
        assert not any("over" in got for got in results.values())
        for got in results.values():
            for i, (controls, target) in enumerate(values):
                assert got[i] == Gate(GateKind.MCX, controls, (target,))

    def test_phase_gates_from_passes_are_shared_after_a_reset(self):
        """Phase folding and cancellation hand out the builders' phase
        gates, also after the table starts over, so appending a builder
        gate to their output keeps one table row per gate value."""

        def build():
            return Circuit(3, [h(0), t(0), cnot(0, 1), cnot(0, 1), t(0), h(2), t(2), tdg(1)])

        # fill every memo that holds width-3 phase gates, then start over
        fold_phases(build())
        cancel_circuit(build())
        reset_shared_gates()
        circuit = build()
        for out in (fold_phases(circuit), cancel_circuit(circuit)):
            phases = [g for g in out.gates if g.kind in gates.PHASE_KINDS]
            assert phases
            assert all(g is phase_gate(g.kind, g.target) for g in phases)
            out.append(s(0))
            assert len(out.table) == len(set(out.table))

    @pytest.mark.parametrize(
        "optimization", ["spire", "none+peephole", "none+zx-like"]
    )
    def test_a_compile_across_resets_measures_the_same(
        self, monkeypatch, optimization
    ):
        """A table far smaller than one compile's gates starts over
        mid-compile, together with the memos and the cost model's profile
        table, and the measured and predicted counts stay the same."""
        from repro.benchsuite import BenchmarkRunner
        from repro.config import TINY

        def counts(point):
            return (point.mcx, point.t, point.qubits,
                    point.predicted_mcx, point.predicted_t)

        expected = counts(BenchmarkRunner(TINY).measure("length", 3, optimization))
        resets = []
        real = gates.reset_shared_gates

        def counting():
            resets.append(len(gates._SHARED))
            real()

        monkeypatch.setattr(gates, "reset_shared_gates", counting)
        monkeypatch.setattr(gates, "SHARED_GATES_MAX", 64)
        real()
        got = counts(BenchmarkRunner(TINY).measure("length", 3, optimization))
        assert resets and set(resets) == {64}
        assert got == expected

    def test_from_rows_merges_one_object_at_two_rows(self):
        a, b = mcx([0, 1, 2], 3), cnot(0, 1)
        table = [a, b, a, Gate(GateKind.MCX, (0,), (1,))]
        rows = np.array([2, 0, 1, 3, 2], dtype=np.int32)
        circuit = Circuit.from_rows(table, rows, 4)
        assert circuit.gates == [table[r] for r in rows.tolist()]
        assert circuit.gates == [a, a, b, b, a]
        assert len({id(g) for g in circuit.table}) == len(circuit.table)
        assert circuit.table[0] is a and circuit.table[1] is b
        # an equal but distinct object keeps a row of its own
        assert len(circuit.table) == 3
        assert circuit.inverse().gates == [a, b, b, a, a]
        assert len(circuit.inverse().table) == 2


class TestTCosts:
    def test_toffoli_ladder_counts(self):
        # Figure 5: 2(c-2)+1 Toffolis
        assert toffoli_count_for_mcx(0) == 0
        assert toffoli_count_for_mcx(1) == 0
        assert toffoli_count_for_mcx(2) == 1
        assert toffoli_count_for_mcx(3) == 3
        assert toffoli_count_for_mcx(5) == 7

    def test_t_cost_seven_per_toffoli(self):
        # Figure 6: 7 T per Toffoli; Section 3.3: MCX with 3 controls = 21
        assert t_cost_of_mcx(2) == 7
        assert t_cost_of_mcx(3) == 21

    def test_clifford_gates_are_free(self):
        assert x(0).t_cost() == 0
        assert cnot(0, 1).t_cost() == 0
        assert h(0).t_cost() == 0
        assert z(0).t_cost() == 0

    def test_t_gates_cost_one(self):
        assert t(0).t_cost() == 1
        assert tdg(0).t_cost() == 1  # footnote 3: T† has T-complexity 1

    def test_incremental_control_cost_is_14(self):
        # Section 5: c_T_ctrl = 2 x 7 = 14 per control beyond the second
        for c in range(2, 8):
            assert t_cost_of_mcx(c + 1) - t_cost_of_mcx(c) == 14

    def test_controlled_h_cost(self):
        assert t_cost_of_controlled_h(0) == 0
        assert t_cost_of_controlled_h(1) == 2 + t_cost_of_mcx(1)
        assert t_cost_of_controlled_h(2) == 2 + t_cost_of_mcx(2)

    def test_controlled_t_rejected(self):
        gate = Gate(GateKind.T, (1,), (0,))
        with pytest.raises(ValueError):
            gate.t_cost()


class TestCliffordTMembership:
    def test_members(self):
        for gate in [x(0), cnot(0, 1), h(0), t(0), tdg(0), s(0), sdg(0), z(0)]:
            assert gate.is_clifford_t()

    def test_non_members(self):
        assert not toffoli(0, 1, 2).is_clifford_t()
        assert not mcx([0, 1, 2], 3).is_clifford_t()
        assert not h(0, controls=[1]).is_clifford_t()


def test_str_rendering():
    assert str(toffoli(0, 1, 2)) == "Toffoli[0,1](2)"
    assert str(x(3)) == "X(3)"
    assert str(tdg(1)) == "T†(1)"
