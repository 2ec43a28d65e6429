"""Dense statevector simulation of small circuits.

Used by the test suite to verify, up to global phase, that gate
decompositions and circuit optimizers preserve semantics.  Practical up to
roughly 16 qubits; the benchmark programs are validated by the classical
simulator instead.

The kernels update the state **in place** on its leading axis and reuse
cached index tables:

* uncontrolled gates use reshape views (``state.reshape(-1, 2, 2**t, ...)``)
  and touch no index arrays at all;
* controlled gates use memoized pair/selection index tables keyed by
  ``(dim, control_mask, target_bit)`` — circuits repeat the same few masks
  thousands of times, so the ``np.arange``/compare work is paid once.  All
  tables share one bounded LRU (:data:`_TABLE_CACHE`), so mixed-width fuzz
  sweeps cannot thrash unbounded per-function caches.

:func:`run` and :func:`unitary` do not walk gates one at a time: the
circuit is segmented once (cached per circuit object, see
:func:`_circuit_plan`) into Hadamard steps and maximal runs of
diagonal/permutation gates (MCX, SWAP, phase).  A whole run collapses
into *one* exponent scatter plus *one* index permutation over the
original index space — ``e[src[sel]] += k`` per phase gate and int swaps
on ``src`` per permutation gate — and is applied to the amplitudes with
a single table lookup/multiply and a single gather.  Decomposed
Clifford+T circuits are phase/CNOT-heavy between sparse Hadamards, so
most gates never touch the complex amplitudes at all; for
:func:`unitary` the per-gate work drops from ``O(dim^2)`` to ``O(dim)``.

Because the leading axis is generic, the same kernels run one statevector
(shape ``(dim,)``) or all basis columns at once (shape ``(dim, dim)``),
which is how :func:`unitary` builds the full matrix in one sweep.

:func:`run` never mutates its caller's array (it simulates on a private
copy), but :func:`apply_gate` itself is destructive: it may modify the
array passed in and returns it.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from typing import List, Tuple

import numpy as np

from ..bounded import BoundedCache
from ..errors import SimulationError
from .circuit import Circuit
from .gates import Gate, GateKind, PHASE_EIGHTHS

_SQRT1_2 = 1.0 / math.sqrt(2.0)

#: ``exp(i*pi*k/4)`` for k in 0..7 (the eight phase-gate rotations).
_EIGHTH_PHASES = tuple(np.exp(1j * math.pi * k / 4.0) for k in range(8))

#: Same rotations as an array, for batched exponent-table lookups.
_EIGHTH_TABLE = np.array(_EIGHTH_PHASES, dtype=np.complex128)


def zero_state(num_qubits: int) -> np.ndarray:
    """The all-zeros computational basis state."""
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[0] = 1.0
    return state


def basis_state(num_qubits: int, bits: int) -> np.ndarray:
    """The computational basis state |bits⟩ (bit i of ``bits`` = qubit i)."""
    state = np.zeros(1 << num_qubits, dtype=np.complex128)
    state[bits] = 1.0
    return state


#: One LRU for every index table, keyed by (tag, dim, masks...).  One
#: shared bound replaces per-function ``lru_cache`` decorators: a fuzz
#: sweep that mixes many circuit widths and control masks evicts the
#: oldest tables instead of growing several caches independently.
_TABLE_CACHE = BoundedCache(maxsize=512)


def _indices(dim: int) -> np.ndarray:
    def build():
        arr = np.arange(dim)
        arr.setflags(write=False)
        return arr

    return _TABLE_CACHE.get(("idx", dim), build)


def _pair_indices(dim: int, cmask: int, tbit: int):
    """(low, high) index tables: active rows with target bit 0 / 1."""

    def build():
        idx = _indices(dim)
        low = idx[((idx & cmask) == cmask) & ((idx & tbit) == 0)]
        high = low | tbit
        low.setflags(write=False)
        high.setflags(write=False)
        return low, high

    return _TABLE_CACHE.get(("pair", dim, cmask, tbit), build)


def _phase_indices(dim: int, cmask: int, tbit: int) -> np.ndarray:
    """Index table of active rows with the target bit set."""

    def build():
        idx = _indices(dim)
        sel = idx[((idx & cmask) == cmask) & ((idx & tbit) != 0)]
        sel.setflags(write=False)
        return sel

    return _TABLE_CACHE.get(("phase", dim, cmask, tbit), build)


def _swap_indices(dim: int, cmask: int, abit: int, bbit: int):
    """(low, high) index tables for rows whose a/b target bits differ."""

    def build():
        idx = _indices(dim)
        sel = ((idx & cmask) == cmask) & ((idx & abit) != 0) & ((idx & bbit) == 0)
        low = idx[sel]
        high = low ^ (abit | bbit)
        low.setflags(write=False)
        high.setflags(write=False)
        return low, high

    return _TABLE_CACHE.get(("swap", dim, cmask, abit, bbit), build)


def apply_gate(state: np.ndarray, gate: Gate, num_qubits: int) -> np.ndarray:
    """Apply one gate to a statevector **in place** and return it.

    ``state`` may carry trailing axes (e.g. a ``(dim, k)`` batch of
    statevectors as columns); the gate acts on the leading axis.
    """
    dim = state.shape[0]
    cmask = gate.control_mask
    # the reshape-view fast paths need a C-contiguous buffer (reshape would
    # otherwise return a copy and the in-place write would be lost)
    contiguous = state.flags.c_contiguous

    if gate.kind is GateKind.MCX:
        tbit = 1 << gate.target
        if cmask == 0 and contiguous:
            v = state.reshape((-1, 2, tbit) + state.shape[1:])
            tmp = v[:, 0].copy()
            v[:, 0] = v[:, 1]
            v[:, 1] = tmp
            return state
        low, high = _pair_indices(dim, cmask, tbit)
        tmp = state[low]
        state[low] = state[high]
        state[high] = tmp
        return state

    if gate.kind is GateKind.SWAP:
        a, b = gate.targets
        low, high = _swap_indices(dim, cmask, 1 << a, 1 << b)
        tmp = state[low]
        state[low] = state[high]
        state[high] = tmp
        return state

    if gate.kind in PHASE_EIGHTHS:
        phase = _EIGHTH_PHASES[PHASE_EIGHTHS[gate.kind]]
        tbit = 1 << gate.target
        if cmask == 0 and contiguous:
            v = state.reshape((-1, 2, tbit) + state.shape[1:])
            v[:, 1] *= phase
            return state
        state[_phase_indices(dim, cmask, tbit)] *= phase
        return state

    if gate.kind is GateKind.H:
        tbit = 1 << gate.target
        if cmask == 0 and contiguous:
            v = state.reshape((-1, 2, tbit) + state.shape[1:])
            a = v[:, 0] + v[:, 1]
            np.subtract(v[:, 0], v[:, 1], out=v[:, 1])
            v[:, 1] *= _SQRT1_2
            a *= _SQRT1_2
            v[:, 0] = a
            return state
        low, high = _pair_indices(dim, cmask, tbit)
        a = state[low]
        b = state[high]
        state[low] = _SQRT1_2 * (a + b)
        state[high] = _SQRT1_2 * (a - b)
        return state

    raise SimulationError(f"unsupported gate {gate}")  # pragma: no cover


# ------------------------------------------------------------ batched apply
#: A plan segment is ``("h", gate, None)`` for a Hadamard step, or a
#: ``("mix", ops, gates)`` run where each op is
#: ``("x", cmask, tbit)`` / ``("swap", cmask, abit, bbit)`` /
#: ``("ph", cmask, tbit, eighths)`` — every gate between two Hadamards is
#: a permutation or a diagonal of the computational basis, so whole runs
#: compose into one permutation plus one phase-exponent vector.  The
#: run's gates ride along so short runs can use the per-gate kernels.
_PlanOp = Tuple
_Plan = List[Tuple[str, object]]


def _build_plan(circuit: Circuit) -> _Plan:
    segments: _Plan = []
    ops: List[_PlanOp] = []
    run_gates: List[Gate] = []

    def flush() -> None:
        nonlocal ops, run_gates
        if ops:
            segments.append(("mix", ops, run_gates))
            ops = []
            run_gates = []

    for gate in circuit.gates:
        kind = gate.kind
        if kind is GateKind.H:
            flush()
            segments.append(("h", gate, None))
            continue
        if kind is GateKind.MCX:
            ops.append(("x", gate.control_mask, 1 << gate.target))
        elif kind is GateKind.SWAP:
            a, b = gate.targets
            ops.append(("swap", gate.control_mask, 1 << a, 1 << b))
        elif kind in PHASE_EIGHTHS:
            ops.append(
                ("ph", gate.control_mask, 1 << gate.target, PHASE_EIGHTHS[kind])
            )
        else:
            raise SimulationError(f"unsupported gate {gate}")  # pragma: no cover
        run_gates.append(gate)
    flush()
    return segments


#: Plans keyed by circuit identity and gate count, circuit pinned (the
#: :class:`~repro.circuit.decompose.DecompositionCache` pattern: an
#: ``id()`` can never be reused by a different live circuit while its
#: entry exists, and an append changes the count).  Small bound —
#: simulation sweeps revisit the same few circuits back-to-back.
_PLAN_CACHE: OrderedDict = OrderedDict()
_PLAN_CACHE_MAX = 32


def _circuit_plan(circuit: Circuit) -> _Plan:
    key = (id(circuit), len(circuit))
    hit = _PLAN_CACHE.get(key)
    if hit is not None and hit[0] is circuit:
        _PLAN_CACHE.move_to_end(key)
        return hit[1]
    plan = _build_plan(circuit)
    _PLAN_CACHE[key] = (circuit, plan)
    if len(_PLAN_CACHE) > _PLAN_CACHE_MAX:
        _PLAN_CACHE.popitem(last=False)
    return plan


def _apply_mix_run(state: np.ndarray, ops: List[_PlanOp]) -> np.ndarray:
    """Apply a run of permutation/diagonal gates in one batched sweep.

    The run composes into ``out[i] = state[src[i]] * w^(e[src[i]])`` with
    ``w = exp(i*pi/4)``: permutation gates swap entries of the integer
    ``src`` table (built lazily — diagonal-only runs never materialize
    it), and each phase gate scatters its eighth-turns into the exponent
    vector ``e`` *over the original index space* via ``e[src[sel]] += k``
    (``src`` is a bijection, so the fancy-indexed add hits unique slots).
    The complex amplitudes are touched exactly twice per run: one
    table-lookup multiply and one gather.
    """
    dim = state.shape[0]
    e = None
    src = None
    for op in ops:
        tag = op[0]
        if tag == "ph":
            if e is None:
                e = np.zeros(dim, dtype=np.int64)
            if src is None and op[1] == 0:
                # uncontrolled: strided view add, no index tables
                e.reshape(-1, 2, op[2])[:, 1] += op[3]
                continue
            sel = _phase_indices(dim, op[1], op[2])
            if src is not None:
                sel = src[sel]
            e[sel] += op[3]
        else:
            if src is None:
                src = np.arange(dim, dtype=np.intp)
            if tag == "x" and op[1] == 0:
                v = src.reshape(-1, 2, op[2])
                tmp = v[:, 0].copy()
                v[:, 0] = v[:, 1]
                v[:, 1] = tmp
                continue
            if tag == "x":
                low, high = _pair_indices(dim, op[1], op[2])
            else:
                low, high = _swap_indices(dim, op[1], op[2], op[3])
            tmp = src[low]
            src[low] = src[high]
            src[high] = tmp
    if e is not None:
        phases = _EIGHTH_TABLE[e & 7]
        if state.ndim > 1:
            state *= phases.reshape((dim,) + (1,) * (state.ndim - 1))
        else:
            state *= phases
    if src is not None:
        state = state[src]
    return state


def _run_plan(state: np.ndarray, circuit: Circuit) -> np.ndarray:
    num_qubits = circuit.num_qubits
    # Batched runs pay one full-dim multiply and one full-dim gather per
    # run.  On a single statevector the per-gate reshape-view kernels
    # already move less memory than that, so batching only wins when the
    # state carries trailing axes (all basis columns at once in
    # :func:`unitary`): there each deferred gate saves an O(dim^2) sweep.
    batch = state.ndim > 1
    for seg in _circuit_plan(circuit):
        if seg[0] == "h":
            state = apply_gate(state, seg[1], num_qubits)
        elif batch and len(seg[1]) >= 2:
            state = _apply_mix_run(state, seg[1])
        else:
            for gate in seg[2]:
                state = apply_gate(state, gate, num_qubits)
    return state


def run(circuit: Circuit, state: np.ndarray | None = None) -> np.ndarray:
    """Run a circuit on a statevector (default |0...0⟩).

    The caller's array is never modified: simulation happens on a copy.
    """
    if state is None:
        state = zero_state(circuit.num_qubits)
    else:
        if state.shape[0] != (1 << circuit.num_qubits):
            raise SimulationError(
                f"state has {state.shape[0]} amplitudes, circuit needs "
                f"{1 << circuit.num_qubits}"
            )
        state = np.array(state, dtype=np.complex128)
    return _run_plan(state, circuit)


def unitary(circuit: Circuit, num_qubits: int | None = None) -> np.ndarray:
    """The full unitary matrix of a circuit (exponential; small circuits only)."""
    n = max(circuit.num_qubits, num_qubits or 0)
    if n > 14:
        raise SimulationError(f"{n} qubits is too large for a dense unitary")
    if n != circuit.num_qubits:
        circuit = Circuit(n, circuit.gates)
    dim = 1 << n
    # all basis columns evolve at once: the kernels act on the leading axis
    mat = np.eye(dim, dtype=np.complex128)
    return _run_plan(mat, circuit)


def states_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Equality of statevectors up to global phase."""
    if a.shape != b.shape:
        return False
    idx = int(np.argmax(np.abs(a)))
    if abs(a[idx]) < tol and abs(b[idx]) < tol:
        return bool(np.allclose(a, b, atol=tol))
    if abs(b[idx]) < tol:
        return False
    phase = a[idx] / b[idx]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a, phase * b, atol=tol))


def unitaries_equal(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Equality of unitaries up to global phase."""
    if a.shape != b.shape:
        return False
    flat_a = a.ravel()
    flat_b = b.ravel()
    idx = int(np.argmax(np.abs(flat_a)))
    if abs(flat_b[idx]) < tol:
        return False
    phase = flat_a[idx] / flat_b[idx]
    if abs(abs(phase) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(a, phase * b, atol=tol))


def circuits_equivalent(
    a: Circuit, b: Circuit, num_qubits: int | None = None, tol: float = 1e-9
) -> bool:
    """Whether two circuits implement the same unitary up to global phase.

    The circuits are padded to a common qubit count (extra wires on either
    side must act as identity, which the comparison then checks for free).
    """
    n = max(a.num_qubits, b.num_qubits)
    if num_qubits is not None:
        n = max(n, num_qubits)
    return unitaries_equal(unitary(a, n), unitary(b, n), tol)


# ------------------------------------------------------------ sparse states
#: amplitude dict representation: basis index -> complex amplitude
SparseState = dict


def sparse_run(
    circuit: Circuit,
    state: int | SparseState = 0,
    support_cap: int = 1 << 16,
    tol: float = 1e-12,
) -> SparseState:
    """Run a circuit on a sparsely represented statevector.

    The state is a ``{basis_index: amplitude}`` dict, so the cost scales
    with the circuit size times the *support* of the state rather than with
    ``2**num_qubits``.  Computational-basis inputs through MCX-level
    circuits keep support 1, and through Clifford+T circuits the support
    stays bounded by the nesting of open Hadamard pairs — which is what
    makes full statevector semantics checkable on the 40-140 qubit
    benchmark circuits that a dense simulation can never touch.

    Raises :class:`SimulationError` if the support exceeds ``support_cap``
    (the input genuinely entangles too many branches for this
    representation).  Amplitudes below ``tol`` are pruned after each
    branching gate so transient interference does not inflate the support.
    """
    if isinstance(state, int):
        amps: SparseState = {state: 1.0 + 0.0j}
    else:
        amps = {int(k): complex(v) for k, v in state.items()}
    table = _EIGHTH_PHASES
    for seg in _circuit_plan(circuit):
        if seg[0] == "h":
            gate = seg[1]
            cmask = gate.control_mask
            tbit = 1 << gate.target
            out: SparseState = {}
            for idx, amp in amps.items():
                if idx & cmask != cmask:
                    out[idx] = out.get(idx, 0.0) + amp
                    continue
                low = idx & ~tbit
                high = idx | tbit
                sign = -1.0 if idx & tbit else 1.0
                out[low] = out.get(low, 0.0) + _SQRT1_2 * amp
                out[high] = out.get(high, 0.0) + sign * _SQRT1_2 * amp
            amps = {idx: amp for idx, amp in out.items() if abs(amp) > tol}
            if len(amps) > support_cap:
                raise SimulationError(
                    f"sparse state support {len(amps)} exceeds cap {support_cap}"
                )
            continue
        # a whole permutation/diagonal run updates the dict once: each
        # branch index walks the run's ops (permutations rewrite the
        # index, diagonals accumulate eighth-turns), and the amplitude
        # is written back with a single phase multiply.  Permutations
        # are bijections, so distinct branches never collide.
        ops = seg[1]
        out = {}
        for idx, amp in amps.items():
            ek = 0
            for op in ops:
                tag = op[0]
                if tag == "ph":
                    sel = op[1] | op[2]
                    if idx & sel == sel:
                        ek += op[3]
                elif tag == "x":
                    if idx & op[1] == op[1]:
                        idx ^= op[2]
                else:
                    cmask, abit, bbit = op[1], op[2], op[3]
                    if idx & cmask == cmask and bool(idx & abit) != bool(
                        idx & bbit
                    ):
                        idx ^= abit | bbit
            out[idx] = amp * table[ek & 7] if ek else amp
        amps = out
    return amps


def fix_global_phase(amps):
    """Divide out a deterministically chosen global phase.

    The anchor is the amplitude at the *smallest key among those of
    (near-)maximal magnitude*, rotated to be real and positive.  Picking it
    by key order (not by float argmax order) keeps the choice stable under
    the tiny magnitude jitter that different gate orderings introduce, so
    two states equal up to global phase map to numerically equal dicts.
    Generic over the key type (basis indices here, named-register branch
    keys in :mod:`repro.fuzz.oracles`); keys need only be orderable.
    """
    if not amps:
        return {}
    peak = max(abs(amp) for amp in amps.values())
    anchor = min(
        key for key, amp in amps.items() if abs(amp) >= peak * (1.0 - 1e-6)
    )
    phase = amps[anchor] / abs(amps[anchor])
    return {key: amp / phase for key, amp in amps.items()}


def canonical_sparse(state: SparseState, tol: float = 1e-9) -> SparseState:
    """Canonical form of a sparse state: pruned and global-phase-fixed.

    Amplitudes below ``tol`` are dropped, then the global phase is fixed by
    :func:`fix_global_phase`.
    """
    return fix_global_phase(
        {idx: amp for idx, amp in state.items() if abs(amp) > tol}
    )


def sparse_states_equal(
    a: SparseState, b: SparseState, tol: float = 1e-7
) -> bool:
    """Equality of sparse states up to global phase and ``tol`` per amplitude."""
    ca = canonical_sparse(a, tol=tol * 1e-2)
    cb = canonical_sparse(b, tol=tol * 1e-2)
    for idx in set(ca) | set(cb):
        if abs(ca.get(idx, 0.0) - cb.get(idx, 0.0)) > tol:
            return False
    return True


def sparse_is_basis(state: SparseState, bits: int, tol: float = 1e-7) -> bool:
    """Whether a sparse state is |bits⟩ up to global phase."""
    weight = 0.0
    for idx, amp in state.items():
        if idx != bits and abs(amp) > tol:
            return False
        if idx == bits:
            weight = abs(amp)
    return abs(weight - 1.0) <= tol


def sparse_to_dense(state: SparseState, num_qubits: int) -> np.ndarray:
    """Materialize a sparse state as a dense vector (small circuits only)."""
    dense = np.zeros(1 << num_qubits, dtype=np.complex128)
    for idx, amp in state.items():
        dense[idx] = amp
    return dense


def equivalent_on_clean_ancillas(
    reference: Circuit,
    expanded: Circuit,
    shared_qubits: int | None = None,
    tol: float = 1e-9,
) -> bool:
    """Equivalence when wires above ``shared_qubits`` start (and must end) at |0⟩.

    Decompositions such as the Figure 5 MCX ladder borrow clean ancillas and
    return them; they equal the original only on that subspace.  Every basis
    state of the shared wires (ancillas zero) is pushed through both
    circuits; the expanded result must equal the reference result tensored
    with zero ancillas, up to one common global phase.
    """
    n_shared = reference.num_qubits if shared_qubits is None else shared_qubits
    n_big = max(expanded.num_qubits, n_shared)
    phase: complex | None = None
    for bits in range(1 << n_shared):
        out_ref = run(reference, basis_state(reference.num_qubits, bits))
        out_big = run(expanded, basis_state(n_big, bits))
        # the expanded output must live entirely in the ancilla-zero block
        block = out_big[: 1 << reference.num_qubits]
        if not np.isclose(np.linalg.norm(block), 1.0, atol=1e-7):
            return False
        idx = int(np.argmax(np.abs(out_ref)))
        if abs(block[idx]) < tol:
            return False
        this_phase = block[idx] / out_ref[idx]
        if phase is None:
            phase = this_phase
        if not np.allclose(block, phase * out_ref, atol=tol):
            return False
    return True
