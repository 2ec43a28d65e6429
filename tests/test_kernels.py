"""Bit-identity tests for the compiled kernels and the batched simulator.

Every batch kernel must agree gate-for-gate (or amplitude-for-amplitude)
with the frozen seed implementations in :mod:`repro.reference`:

* the compiled cancel fixpoint (:func:`repro._kernels.cancel_fixpoint`)
  vs ``cancel_to_fixpoint_seed``;
* the compiled fold classifier feeding the grouped phase fold vs
  ``fold_phases_seed``;
* the batched statevector plan (``run``/``unitary``/``sparse_run``) vs
  the per-gate seed kernels.

The compiled kernels build on first use; subprocess tests over a copy
of the package check that, the rebuild of a stale library, and the
loud failures.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import Tuple

import numpy as np
import hypothesis.strategies as st
from hypothesis import given, settings

import repro
from repro import _kernels, reference
from repro.circopt import cancel_circuit, cancel_to_fixpoint, fold_phases
from repro.circuit import Circuit, cnot, h, swap, t, tdg, toffoli, x
from repro.circuit.snapshot import dump_bytes, load_bytes
from repro.circuit.gates import Gate, GateKind
from repro.circuit import statevector as sv


# --------------------------------------------------------- gate strategies
def _gate_strategy(num_qubits: int, exotic: bool):
    """Random gates over ``num_qubits`` wires, as equal but distinct
    ``Gate(...)`` objects; ``exotic`` adds multi-controlled gates, which
    the phase fold treats as barriers over all of their qubits."""
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
                lambda k, qs: Gate(k, (qs[0], qs[1]), (qs[2],)),
                phase_kinds,
                distinct(3),
            ),
            st.builds(
                lambda qs: Gate(GateKind.SWAP, (qs[0],), (qs[1], qs[2])),
                distinct(3),
            ),
        ]
    if exotic and num_qubits >= 4:
        options += [
            st.integers(3, min(5, num_qubits - 1)).flatmap(
                lambda c: st.builds(
                    lambda qs: Gate(GateKind.MCX, tuple(qs[:-1]), (qs[-1],)),
                    distinct(c + 1),
                )
            ),
            st.builds(
                lambda qs: Gate(GateKind.SWAP, (qs[0], qs[1]), (qs[2], qs[3])),
                distinct(4),
            ),
        ]
    return st.lists(st.one_of(options), max_size=60)


_WIDTHS = st.sampled_from([1, 2, 3, 4, 5, 70, 130])


# ------------------------------------------------------------ cancel kernel
@settings(max_examples=60, deadline=None)
@given(st.data(), _WIDTHS, st.booleans())
def test_cancel_kernel_matches_seed(data, num_qubits, reloaded):
    """The compiled fixpoint and the seed fixpoint agree gate-for-gate.

    Widths 70 and 130 force multi-word masks in the C kernel.
    ``reloaded`` runs the kernel on the circuit restored from its
    snapshot, whose gate table holds the shared instances rather than the
    drawn ``Gate`` objects.
    """
    gates = data.draw(_gate_strategy(num_qubits, exotic=True))
    window = data.draw(st.sampled_from([1, 2, 4, 64]))
    max_passes = data.draw(st.sampled_from([1, 3, 20]))
    circuit = Circuit(num_qubits, gates)
    if reloaded:
        circuit = load_bytes(dump_bytes(circuit))
    seed = reference.cancel_to_fixpoint_seed(list(gates), window, max_passes)
    compiled = _kernels.cancel_fixpoint(circuit, window, max_passes)
    assert compiled.gates == seed
    assert compiled.num_qubits == circuit.num_qubits
    assert cancel_circuit(circuit, window, max_passes).gates == seed
    assert cancel_to_fixpoint(list(gates), window, max_passes) == seed


def test_cancel_respects_qubit_tuple_order():
    """Equal qubit *sets* with different control order must not cancel.

    ``toffoli(1, 2, 3)`` and ``toffoli(2, 1, 3)`` have identical masks;
    only the interned ``(controls, targets)`` ordinal distinguishes them.
    """
    gates = [toffoli(1, 2, 3), toffoli(2, 1, 3)]
    assert _kernels.cancel_fixpoint(Circuit(4, gates), 64, 20).gates == gates
    # same-order controls do annihilate
    pair = [toffoli(1, 2, 3), toffoli(1, 2, 3)]
    assert cancel_to_fixpoint(pair) == []


# -------------------------------------------------------------- fold kernel
@settings(max_examples=60, deadline=None)
@given(st.data(), _WIDTHS, st.booleans())
def test_fold_kernel_matches_seed(data, num_qubits, reloaded):
    """The grouped fold over the compiled classifier equals the seed fold."""
    gates = data.draw(_gate_strategy(num_qubits, exotic=True))
    circuit = Circuit(num_qubits, gates)
    seed = reference.fold_phases_seed(circuit).gates
    if reloaded:
        circuit = load_bytes(dump_bytes(circuit))
    folded = fold_phases(circuit)
    assert folded.gates == seed
    assert folded.num_qubits == num_qubits


def test_fold_kernel_reads_multi_controlled_rows():
    """A Toffoli is a barrier on its three qubits only: the T gates on the
    untouched wire 3 still merge into one S, exactly as in the seed."""
    gates = [t(3), t(2), toffoli(0, 1, 2), t(3), t(2), cnot(3, 2), t(2)]
    circuit = Circuit(4, gates)
    folded = fold_phases(circuit)
    assert folded.gates == reference.fold_phases_seed(circuit).gates
    assert len(folded) == len(gates) - 1


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


# ------------------------------------------------------- loading the kernels
def test_kernels_degenerate_inputs():
    """Empty circuits and zero budgets come back unchanged."""
    assert _kernels.cancel_fixpoint(Circuit(1, []), 64, 20).gates == []
    assert _kernels.cancel_fixpoint(Circuit(1, [t(0)]), 64, 0).gates == [t(0)]
    assert fold_phases(Circuit(1, [])).gates == []
    assert cancel_to_fixpoint([]) == []


_CANCEL_TWO = (
    "from repro.circopt import cancel_to_fixpoint\n"
    "from repro.circuit import t, tdg\n"
    "assert cancel_to_fixpoint([t(0), tdg(0)]) == []\n"
)


def _start_copy(root: Path, code: str, **extra_env: str) -> subprocess.Popen:
    """Start ``code`` in a fresh interpreter that imports the package copy
    under ``root`` and finds its compiler on ``PATH``."""
    env = {**os.environ, "PYTHONPATH": str(root), **extra_env}
    env.pop("CC", None)
    return subprocess.Popen(
        [sys.executable, "-c", code], cwd=root, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _run_copy(root: Path, code: str, **extra_env: str) -> Tuple[int, str]:
    """Exit status and stderr of :func:`_start_copy`."""
    proc = _start_copy(root, code, **extra_env)
    _, err = proc.communicate(timeout=300)
    return proc.returncode, err


def _package_copy(tmp_path: Path) -> Path:
    """Copy the package under ``tmp_path`` without any shared object and
    return where its library will be built."""
    package = Path(repro.__file__).resolve().parent
    shutil.copytree(
        package, tmp_path / "repro", ignore=shutil.ignore_patterns("*.so", "__pycache__")
    )
    lib = (tmp_path / "repro" / "_kernels" / "_cancel_kernel.so").resolve()
    assert not lib.exists()
    return lib


def test_kernels_build_on_first_use(tmp_path):
    """A copy of the package without the shared object builds it on the
    first kernel call, even with three processes racing to build it."""
    lib = _package_copy(tmp_path)
    racing = [_start_copy(tmp_path, _CANCEL_TWO) for _ in range(3)]
    for proc in racing:
        _, err = proc.communicate(timeout=300)
        assert proc.returncode == 0, err
    assert lib.exists()
    assert not list(lib.parent.glob("tmp*.so"))


def test_kernels_rebuild_a_stale_library(tmp_path):
    """Once a source is newer than the library, the next process rebuilds
    it before the first kernel call."""
    lib = _package_copy(tmp_path)
    status, err = _run_copy(tmp_path, _CANCEL_TWO)
    assert status == 0, err
    touched = lib.stat().st_mtime_ns + 1_000_000
    os.utime(lib.parent / "fold.c", ns=(touched, touched))
    status, err = _run_copy(tmp_path, _CANCEL_TWO)
    assert status == 0, err
    assert lib.stat().st_mtime_ns > touched


def test_kernels_name_a_library_that_will_not_load(tmp_path):
    """A garbage library newer than the sources is not rebuilt: the first
    kernel call fails, naming it."""
    lib = _package_copy(tmp_path)
    lib.write_bytes(b"not a shared object")
    newest = max((lib.parent / name).stat().st_mtime_ns for name in ("cancel.c", "fold.c"))
    touched = max(lib.stat().st_mtime_ns, newest + 1_000_000)
    os.utime(lib, ns=(touched, touched))
    status, err = _run_copy(tmp_path, _CANCEL_TWO)
    assert status != 0
    assert f"cannot load {lib}" in err


def test_kernels_fail_loudly_without_a_compiler(tmp_path):
    """With no compiler on ``PATH`` the first kernel call fails, naming the
    library it could not build, and leaves no library behind."""
    lib = _package_copy(tmp_path)
    status, err = _run_copy(tmp_path, _CANCEL_TWO, PATH="")
    assert status != 0
    assert f"cannot build {lib}: no C compiler found" in err
    assert not lib.exists()
