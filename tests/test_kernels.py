"""Bit-identity tests for the batch kernels and the compiled extension.

Every kernel introduced by the batch-level rewrite has a pure-Python
fallback, and both must agree gate-for-gate (or amplitude-for-amplitude)
with the frozen seed implementations in :mod:`repro.reference`:

* the compiled cancel fixpoint (:func:`repro._kernels.cancel_fixpoint`)
  vs the vectorized pure-Python sweep vs ``cancel_to_fixpoint_seed``;
* the compiled fold classifier feeding the grouped phase fold vs the
  pure-Python wire-state sweep vs ``fold_phases_seed``;
* the batched statevector plan (``run``/``unitary``/``sparse_run``) vs
  the per-gate seed kernels.

The extension is exercised when it is loaded; the ``REPRO_NO_EXT=1``
escape hatch and the bounded caches get dedicated tests.  CI runs the
whole suite twice — extension built and ``REPRO_NO_EXT=1`` — so both
dispatch arms stay covered regardless of the build environment.
"""

from __future__ import annotations

import os
import subprocess
import sys

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

from repro import _kernels, reference
from repro.circopt import cancel_circuit, cancel_to_fixpoint, fold_phases
from repro.circopt.cancel import _cancel_to_fixpoint_pure
from repro.circopt.phase_poly import (
    _fold_packed_keys_python,
    _fold_stream_grouped,
)
from repro.circuit import Circuit, GateStream, cnot, h, swap, t, tdg, toffoli, x
from repro.circuit.snapshot import dump_bytes, load_bytes
from repro.circuit.gates import Gate, GateKind
from repro.circuit import statevector as sv


# --------------------------------------------------------- gate strategies
def _gate_strategy(num_qubits: int, exotic: bool):
    """Random gates over ``num_qubits`` wires; ``exotic`` adds the
    multi-controlled/controlled-phase shapes the compiled fold kernel
    must decline."""
    qubits = st.integers(0, num_qubits - 1)
    phase_kinds = st.sampled_from(
        [GateKind.T, GateKind.TDG, GateKind.S, GateKind.SDG, GateKind.Z]
    )

    def distinct(n):
        return st.lists(qubits, min_size=n, max_size=n, unique=True)

    options = [
        st.builds(lambda k, qs: Gate(k, (), (qs[0],)), phase_kinds, distinct(1)),
        st.builds(lambda qs: Gate(GateKind.H, (), (qs[0],)), distinct(1)),
        st.builds(lambda qs: Gate(GateKind.MCX, (), (qs[0],)), distinct(1)),
    ]
    if num_qubits >= 2:
        options += [
            st.builds(
                lambda qs: Gate(GateKind.MCX, (qs[0],), (qs[1],)), distinct(2)
            ),
            st.builds(
                lambda qs: Gate(GateKind.SWAP, (), (qs[0], qs[1])), distinct(2)
            ),
        ]
    if exotic and num_qubits >= 3:
        options += [
            st.builds(
                lambda qs: Gate(GateKind.MCX, (qs[0], qs[1]), (qs[2],)),
                distinct(3),
            ),
            st.builds(
                lambda k, qs: Gate(k, (qs[0],), (qs[1],)),
                phase_kinds,
                distinct(2),
            ),
            st.builds(
                lambda qs: Gate(GateKind.SWAP, (qs[0],), (qs[1], qs[2])),
                distinct(3),
            ),
        ]
    return st.lists(st.one_of(options), max_size=60)


# ------------------------------------------------------------ cancel paths
@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 4, 5, 70, 130]), st.booleans())
def test_cancel_fixpoint_paths_identical(data, num_qubits, reloaded):
    """Compiled, pure-Python and seed fixpoints agree gate-for-gate.

    Widths 70 and 130 force multi-word masks in the C kernel and bigint
    masks in the Python fallback.  ``reloaded`` runs the sweeps on the
    circuit restored from its snapshot, whose gate table holds the shared
    instances rather than the drawn ``Gate`` objects.
    """
    gates = data.draw(_gate_strategy(num_qubits, exotic=True))
    window = data.draw(st.sampled_from([1, 2, 4, 64]))
    max_passes = data.draw(st.sampled_from([1, 3, 20]))
    circuit = Circuit(num_qubits, gates)
    if reloaded:
        circuit = load_bytes(dump_bytes(circuit))
    seed = reference.cancel_to_fixpoint_seed(list(gates), window, max_passes)
    assert _cancel_to_fixpoint_pure(circuit, window, max_passes) == seed
    compiled = _kernels.cancel_fixpoint(circuit, window, max_passes)
    if compiled is not None:  # extension built and enabled
        assert compiled.gates == seed
        assert compiled.num_qubits == circuit.num_qubits
    dispatched = cancel_circuit(circuit, window, max_passes)
    assert dispatched.gates == seed
    assert cancel_to_fixpoint(list(gates), window, max_passes) == seed


def test_cancel_respects_qubit_tuple_order():
    """Equal qubit *sets* with different control order must not cancel.

    ``toffoli(1, 2, 3)`` and ``toffoli(2, 1, 3)`` have identical masks;
    only the interned ``(controls, targets)`` ordinal distinguishes them,
    on both the compiled and the pure-Python path.
    """
    gates = [toffoli(1, 2, 3), toffoli(2, 1, 3)]
    assert _cancel_to_fixpoint_pure(Circuit(4, gates), 64, 20) == gates
    compiled = _kernels.cancel_fixpoint(Circuit(4, gates), 64, 20)
    if compiled is not None:
        assert compiled.gates == gates
    # same-order controls do annihilate
    pair = [toffoli(1, 2, 3), toffoli(1, 2, 3)]
    assert cancel_to_fixpoint(pair) == []


# -------------------------------------------------------------- fold paths
@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([1, 2, 3, 4, 5, 70, 130]))
def test_fold_paths_identical(data, num_qubits):
    """Grouped fold (compiled or fallback) equals sweep and seed output."""
    gates = data.draw(_gate_strategy(num_qubits, exotic=True))
    circuit = Circuit(num_qubits, gates)
    seed = reference.fold_phases_seed(circuit).gates
    folded = fold_phases(circuit).gates
    assert folded == seed
    stream = GateStream.from_gates(gates, num_qubits)
    assert _fold_stream_grouped(stream).gates == seed


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_fold_classifier_agrees_with_python_keys(data):
    """Compiled and Python classifiers induce the same parity grouping.

    Intern ids may differ between the two, but the partition of phase
    gates into (parity, const) classes — which is all the grouped fold
    consumes — must match exactly.
    """
    gates = data.draw(_gate_strategy(4, exotic=False))
    stream = GateStream.from_gates(gates, 4)
    python_keys = _fold_packed_keys_python(stream)
    compiled_keys = _kernels.fold_classify(stream)
    if compiled_keys is None:
        return  # extension unavailable: nothing to compare
    assert len(compiled_keys) == len(python_keys)
    remap: dict = {}
    for ck, pk in zip(compiled_keys.tolist(), python_keys.tolist()):
        assert (ck < 0) == (pk < 0)
        if ck < 0:
            continue
        assert ck % 2 == pk % 2  # affine consts agree
        assert remap.setdefault(ck // 2, pk // 2) == pk // 2
    assert len(set(remap.values())) == len(remap)  # bijection


def test_fold_classifier_declines_multi_controlled_gates():
    """2+ control gates exceed the packed columns: kernel must decline."""
    gates = [t(0), toffoli(0, 1, 2), t(2)]
    stream = GateStream.from_gates(gates, 3)
    assert _kernels.fold_classify(stream) is None or not _kernels.extension_available()
    # the dispatching fold still matches the seed
    circuit = Circuit(3, gates)
    assert fold_phases(circuit).gates == reference.fold_phases_seed(circuit).gates


# ------------------------------------------------------- statevector paths
@settings(max_examples=40, deadline=None)
@given(st.data(), st.integers(1, 5))
def test_batched_statevector_matches_seed(data, num_qubits):
    """Plan-batched run/unitary/sparse_run agree with the seed kernels."""
    gates = data.draw(_gate_strategy(num_qubits, exotic=True))
    circuit = Circuit(num_qubits, gates)
    got = sv.run(circuit)
    want = reference.run_seed(circuit)
    assert np.allclose(got, want, atol=1e-10)
    assert np.allclose(
        sv.unitary(circuit), reference.unitary_seed(circuit), atol=1e-10
    )
    sparse = sv.sparse_run(circuit, 0, support_cap=1 << 12)
    assert np.allclose(
        sv.sparse_to_dense(sparse, num_qubits), got, atol=1e-7
    )


def test_mix_run_batches_permutations_and_phases():
    """A CNOT/T run between Hadamards goes through the batched kernel."""
    gates = [h(0), cnot(0, 1), t(1), cnot(0, 1), tdg(1), swap(0, 1), x(0), h(1)]
    circuit = Circuit(2, gates)
    plan = sv._circuit_plan(circuit)
    kinds = [seg[0] for seg in plan]
    assert kinds == ["h", "mix", "h"]
    assert len(plan[1][1]) == 6
    assert sv._circuit_plan(circuit) is plan  # cached by identity
    mat = sv.unitary(circuit)
    assert np.allclose(mat, reference.unitary_seed(circuit), atol=1e-10)


def test_table_cache_is_bounded():
    """Mixed-width sweeps must not grow the index-table cache unboundedly."""
    cache = sv._TABLE_CACHE
    for nq in range(1, 11):
        for cbit in range(nq - 1):
            sv._pair_indices(1 << nq, 1 << cbit, 1)
            sv._phase_indices(1 << nq, 1 << cbit, 1)
    assert len(cache) <= cache.maxsize
    # an entry built twice in a row is served from cache (same object)
    a = sv._pair_indices(1 << 10, 1, 2)
    b = sv._pair_indices(1 << 10, 1, 2)
    assert a is b


def test_plan_cache_is_bounded_and_keyed_by_identity():
    circuits = [Circuit(1, [t(0)]) for _ in range(sv._PLAN_CACHE_MAX + 8)]
    plans = [sv._circuit_plan(c) for c in circuits]
    assert len(sv._PLAN_CACHE) <= sv._PLAN_CACHE_MAX
    # identical contents, distinct objects: separate entries, equal plans
    assert plans[-1] == plans[-2]
    assert sv._circuit_plan(circuits[-1]) is plans[-1]


# ------------------------------------------------------------ ext plumbing
def test_repro_no_ext_disables_extension():
    """REPRO_NO_EXT=1 must force the pure-Python path in a fresh process."""
    code = (
        "from repro import _kernels\n"
        "assert not _kernels.extension_available()\n"
        "assert 'REPRO_NO_EXT' in _kernels.extension_status()\n"
        "from repro.circuit import Circuit, t, tdg\n"
        "assert _kernels.cancel_fixpoint(Circuit(1, [t(0), tdg(0)]), 64, 20) is None\n"
        "from repro.circopt import cancel_to_fixpoint\n"
        "assert cancel_to_fixpoint([t(0), tdg(0)]) == []\n"
    )
    env = dict(os.environ, REPRO_NO_EXT="1")
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr


def test_extension_status_reports_reason():
    """Status string is empty exactly when the extension is loaded."""
    status = _kernels.extension_status()
    assert (status == "") == _kernels.extension_available()


def test_kernels_degenerate_inputs():
    """Empty streams and zero budgets return early on every path."""
    assert _kernels.cancel_fixpoint(Circuit(1, []), 64, 20) is None
    assert _kernels.cancel_fixpoint(Circuit(1, [t(0)]), 64, 0) is None
    empty = GateStream.from_gates([], 1)
    keys = _kernels.fold_classify(empty)
    assert keys is None or len(keys) == 0
    assert fold_phases(Circuit(1, [])).gates == []
    assert cancel_to_fixpoint([]) == []
