"""Rotation merging via phase-polynomial tracking (phase folding).

This is the strategy of Nam et al. [2018] that Section 8.5 credits to
Feynman ``-toCliffordT``, VOQC and Pytket ZX: phase rotations applied to the
same *parity* of wire values are merged into one rotation, across an
arbitrary number of gates.

The algorithm sweeps the Clifford+T circuit once, tracking for every wire an
affine function (a parity of symbolic *variables* plus a constant) of the
circuit's history:

* a fresh variable is introduced per wire at the start and whenever a
  Hadamard (or any unhandled gate) rewrites the wire;
* ``CNOT(c, t)`` XORs the labels; ``X(t)`` flips the constant;
* an uncontrolled phase gate contributes ``±k`` eighth-turns to the table
  entry for its wire's parity (negated when the constant is 1, the constant
  offset being a global phase);
* the first occurrence of a parity becomes a *placeholder* in the output;
  later occurrences fold into it and disappear.  A parity over an empty
  variable set is itself a global phase and is dropped.

:func:`fold_phases` drives the sweep from the packed arrays of
:class:`~repro.circuit.gatestream.GateStream` — gate dispatch is an integer
compare instead of enum identity plus set membership — and works on row
columns in and out: each placeholder becomes rows of the memoized phase
block of the circuit's width (:class:`~repro.circuit.gatestream.PhaseBlock`),
spliced into the input's row column, so the output circuit is built
without a gate list.  :class:`PhaseFolder` remains the step-by-step API for
callers that feed gates incrementally; both produce identical gates (the
property tests check this against the retained seed implementation in
:mod:`repro.reference`).

Soundness: per computational-basis "branch" the phase contributed depends
only on the parity's value, which is fixed along each branch; folding moves
the phase to a position where the same parity provably resided on a wire.
The test suite checks equivalence (up to global phase) by statevector
simulation on random circuits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Tuple, Union

import numpy as np

from ..circuit.circuit import Circuit
from ..circuit.gates import (
    EIGHTHS_TO_KINDS,
    PHASE_EIGHTHS,
    PHASE_KINDS,
    Gate,
    GateKind,
    phase_gate,
    shared_memo,
)
from ..circuit.gatestream import GateStream, MCX_CODE, SWAP_CODE, phase_block
from .base import CircuitOptimizer, register
from .cancel import cancel_circuit
from .. import _kernels


@dataclass
class _Placeholder:
    """A merged rotation to be materialized at finalization.

    ``eighths`` accumulates relative to the *parity* (mask); ``const`` is
    the wire's affine constant at the emission position — when it is 1 the
    wire shows the negated parity, so materialization negates the count.
    """

    qubit: int
    eighths: int
    const: int


@shared_memo
def _materialized_phases(eighths: int, qubit: int) -> Tuple[Gate, ...]:
    """Cached minimal phase-gate sequence worth ``eighths`` on ``qubit``."""
    return tuple(phase_gate(kind, qubit) for kind in EIGHTHS_TO_KINDS[eighths])


def _finalize(items: List[Union[Gate, _Placeholder]]) -> List[Gate]:
    """Batch-materialize placeholders into the output gate list."""
    gates: List[Gate] = []
    append = gates.append
    extend = gates.extend
    for item in items:
        if type(item) is _Placeholder:
            eighths = item.eighths if item.const == 0 else (-item.eighths) % 8
            extend(_materialized_phases(eighths % 8, item.qubit))
        else:
            append(item)
    return gates


class PhaseFolder:
    """Single-sweep phase folding over a Clifford+T gate list."""

    #: Parities are sets of variable ids (``frozenset`` XOR), not the seed's
    #: one-bit-per-variable integers: fresh variables are minted monotonically,
    #: so the bigint masks grow to hundreds of kilobits on benchmark circuits
    #: and hashing them dominates the sweep.  Set equality coincides with
    #: bigint equality, so the folded output is identical gate-for-gate.

    def __init__(self, num_qubits: int) -> None:
        self.num_qubits = num_qubits
        self._next_var = 0
        self.masks: List[frozenset] = []
        self.consts: List[int] = []
        for _ in range(num_qubits):
            self.masks.append(self._fresh())
            self.consts.append(0)
        self.table: Dict[frozenset, _Placeholder] = {}
        self.out: List[Union[Gate, _Placeholder]] = []

    def _fresh(self) -> frozenset:
        var = self._next_var
        self._next_var += 1
        return frozenset((var,))

    def _cut(self, qubit: int) -> None:
        self.masks[qubit] = self._fresh()
        self.consts[qubit] = 0

    # ----------------------------------------------------------------- sweep
    def feed(self, gate: Gate) -> None:
        kind = gate.kind
        if kind in PHASE_KINDS and not gate.controls:
            qubit = gate.target
            mask = self.masks[qubit]
            eighths = PHASE_EIGHTHS[kind]
            if self.consts[qubit]:
                eighths = (-eighths) % 8  # the offset is a global phase
            if not mask:
                return  # constant parity: pure global phase, dropped
            entry = self.table.get(mask)
            if entry is None:
                entry = _Placeholder(qubit, 0, self.consts[qubit])
                self.table[mask] = entry
                self.out.append(entry)
            entry.eighths = (entry.eighths + eighths) % 8
            return
        if kind is GateKind.MCX and len(gate.controls) == 1:
            control, target = gate.controls[0], gate.target
            self.masks[target] ^= self.masks[control]
            self.consts[target] ^= self.consts[control]
            self.out.append(gate)
            return
        if kind is GateKind.MCX and len(gate.controls) == 0:
            self.consts[gate.target] ^= 1
            self.out.append(gate)
            return
        if kind is GateKind.SWAP and not gate.controls:
            a, b = gate.targets
            self.masks[a], self.masks[b] = self.masks[b], self.masks[a]
            self.consts[a], self.consts[b] = self.consts[b], self.consts[a]
            self.out.append(gate)
            return
        # H, multiply-controlled gates, controlled phases: barrier on the
        # gate's qubits (conservative for anything beyond Clifford+T).
        for qubit in gate.qubits:
            self._cut(qubit)
        self.out.append(gate)

    def finalize(self) -> List[Gate]:
        return _finalize(self.out)


def _fold_stream(stream: GateStream) -> List[Gate]:
    """Phase-fold a packed gate stream (same sweep as :class:`PhaseFolder`)."""
    num_qubits = stream.num_qubits
    # parity sets, not bigint masks — see the note on :class:`PhaseFolder`
    masks: List[frozenset] = [frozenset((q,)) for q in range(num_qubits)]
    consts: List[int] = [0] * num_qubits
    next_var = num_qubits
    table: Dict[frozenset, _Placeholder] = {}
    out: List[Union[Gate, _Placeholder]] = []
    append = out.append

    gates = stream.gates
    kinds = stream.kinds.tolist()
    num_controls = stream.num_controls.tolist()
    eighth_list = stream.phase_eighths.tolist()

    for i, gate in enumerate(gates):
        ph = eighth_list[i]
        if ph >= 0:  # uncontrolled phase gate
            qubit = gate.targets[0]
            mask = masks[qubit]
            if consts[qubit]:
                ph = (-ph) % 8  # the offset is a global phase
            if not mask:
                continue  # constant parity: pure global phase, dropped
            entry = table.get(mask)
            if entry is None:
                entry = _Placeholder(qubit, 0, consts[qubit])
                table[mask] = entry
                append(entry)
            entry.eighths = (entry.eighths + ph) % 8
            continue
        kind = kinds[i]
        if kind == MCX_CODE:
            nc = num_controls[i]
            if nc == 1:
                control = gate.controls[0]
                target = gate.targets[0]
                masks[target] ^= masks[control]
                consts[target] ^= consts[control]
                append(gate)
                continue
            if nc == 0:
                consts[gate.targets[0]] ^= 1
                append(gate)
                continue
        elif kind == SWAP_CODE and not gate.controls:
            a, b = gate.targets
            masks[a], masks[b] = masks[b], masks[a]
            consts[a], consts[b] = consts[b], consts[a]
            append(gate)
            continue
        # H, multiply-controlled gates, controlled phases: barrier on the
        # gate's qubits (conservative for anything beyond Clifford+T).
        for qubit in gate.qubits:
            masks[qubit] = frozenset((next_var,))
            next_var += 1
            consts[qubit] = 0
        append(gate)
    return _finalize(out)


def _fold_packed_keys_python(stream: GateStream) -> np.ndarray:
    """Pure-Python wire-state sweep emitting one packed key per phase gate.

    Returns the same encoding as :func:`repro._kernels.fold_classify`:
    ``parity_id * 2 + affine_const`` for each uncontrolled phase gate in
    stream order, ``-1`` when the parity is empty (a pure global phase).
    The loop does no folding arithmetic and no interning: a phase gate
    appends its wire's parity *object* and constant, and the frozenset
    hash is computed lazily (then cached per object) only when the
    recorded parities are interned after the sweep.
    """
    gates = stream.gates
    n = len(gates)
    num_qubits = stream.num_qubits
    kinds = stream.kinds.tolist()
    num_controls = stream.num_controls.tolist()
    eighth_list = stream.phase_eighths.tolist()

    wire_set: List[FrozenSet[int]] = [frozenset((q,)) for q in range(num_qubits)]
    wire_const: List[int] = [0] * num_qubits
    next_var = num_qubits
    rec_mask: List[FrozenSet[int]] = []
    rec_const: List[int] = []

    for i in range(n):
        gate = gates[i]
        if eighth_list[i] >= 0:  # uncontrolled phase gate
            target = gate.targets[0]
            rec_mask.append(wire_set[target])
            rec_const.append(wire_const[target])
            continue
        kind = kinds[i]
        if kind == MCX_CODE:
            nc = num_controls[i]
            if nc == 1:
                control = gate.controls[0]
                target = gate.targets[0]
                wire_set[target] = wire_set[target] ^ wire_set[control]
                wire_const[target] ^= wire_const[control]
                continue
            if nc == 0:
                wire_const[gate.targets[0]] ^= 1
                continue
        elif kind == SWAP_CODE and not gate.controls:
            a, b = gate.targets
            wire_set[a], wire_set[b] = wire_set[b], wire_set[a]
            wire_const[a], wire_const[b] = wire_const[b], wire_const[a]
            continue
        # H, multiply-controlled gates, controlled phases: barrier on the
        # gate's qubits (conservative for anything beyond Clifford+T).
        for q in gate.qubits:
            wire_set[q] = frozenset((next_var,))
            next_var += 1
            wire_const[q] = 0

    packed = np.empty(len(rec_mask), dtype=np.int64)
    intern: Dict[FrozenSet[int], int] = {}
    for j, s in enumerate(rec_mask):
        if not s:
            packed[j] = -1
            continue
        k = intern.get(s)
        if k is None:
            k = len(intern)
            intern[s] = k
        packed[j] = k * 2 + rec_const[j]
    return packed


def _fold_stream_grouped(stream: GateStream) -> Circuit:
    """Phase-fold a packed stream via array-level grouping.

    Produces the gates of :func:`_fold_stream`, but only the wire state
    machine is sequential — the compiled kernel when available, otherwise
    :func:`_fold_packed_keys_python` — and it merely *labels* each phase
    gate with its governing ``(parity, const)`` as a packed integer key.
    All folding arithmetic then happens on whole arrays: ``np.unique``
    over the parity ids groups equal parities with their first-occurrence
    position (where the reference sweep emits the placeholder),
    ``bincount`` folds the adjusted eighth-turns of every group in one
    shot, and each placeholder becomes the phase-block rows of its merge
    table entry.  Those rows are scattered into the input's row column by
    position, and the output circuit is built from rows alone: it keeps
    the input table and adds only the phase-block gates it names.
    """
    circuit = stream.circuit
    eighths = stream.phase_eighths
    phase_sel = eighths >= 0
    if not bool(phase_sel.any()):
        return circuit.copy()

    packed = _kernels.fold_classify(stream)
    if packed is None:
        packed = _fold_packed_keys_python(stream)

    phase_pos = np.nonzero(phase_sel)[0]
    nonphase_pos = np.nonzero(~phase_sel)[0]
    pph = eighths[phase_pos].astype(np.int64)

    keep = packed >= 0  # empty parity: pure global phase, dropped
    phase_pos = phase_pos[keep]
    pph = pph[keep]
    packed = packed[keep]

    rows = circuit.rows
    records = stream.records
    block = phase_block(1 + int(records.top.max()))
    nonphase_rows = rows[nonphase_pos]
    if len(phase_pos) == 0:
        return block.circuit(circuit, nonphase_rows, circuit.num_qubits)

    # per-occurrence adjustment: a set constant offset is a global phase
    pconst = packed & 1
    adj = np.where(pconst != 0, (8 - pph) % 8, pph)
    pkey = packed >> 1

    # --- group equal parities; fold their eighth-turns in one shot ---
    uniq, first, inverse = np.unique(pkey, return_index=True, return_inverse=True)
    sums = np.bincount(inverse, weights=adj.astype(np.float64)).astype(np.int64) % 8
    const0 = pconst[first]
    final8 = np.where(const0 != 0, (8 - sums) % 8, sums)
    pos0 = phase_pos[first]
    qubit0 = records.target[rows[pos0]]

    # materialize placeholders as phase-block rows; output slot 2*position
    # takes the gate at that position (a non-phase gate or a placeholder's
    # first phase gate) and slot 2*position + 1 the second gate of a
    # two-gate phase sequence, which reproduces the reference order
    nz = np.nonzero(final8)[0]
    merged = block.rows_after(circuit.table, records)[block.merge[final8[nz], qubit0[nz]]]
    slots = np.full(2 * len(stream), -1, dtype=np.int64)
    slots[nonphase_pos * 2] = nonphase_rows
    slots[pos0[nz] * 2] = merged[:, 0]
    slots[pos0[nz] * 2 + 1] = merged[:, 1]
    return block.circuit(circuit, slots[slots >= 0], circuit.num_qubits)


def fold_phases(circuit: Circuit) -> Circuit:
    """Apply one phase-folding sweep to a Clifford+T circuit."""
    return _fold_stream_grouped(GateStream(circuit))


@register
class RotationMerging(CircuitOptimizer):
    """Decompose to Clifford+T, fold phases, then peephole.

    Models Feynman ``-toCliffordT``, VOQC ``optimize_nam`` and Pytket
    ``ZXGraphlikeOptimisation`` in the evaluation.
    """

    name = "rotation-merge"
    models = "Feynman -toCliffordT, VOQC, Pytket ZX"

    def __init__(self, window: int = 64) -> None:
        self.window = window

    def run(self, circuit: Circuit) -> Circuit:
        folded = fold_phases(self._to_clifford_t(circuit))
        return fold_phases(cancel_circuit(folded, self.window))
