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

:func:`fold_phases` runs the sequential part — the wire state machine —
in the compiled classifier of :mod:`repro._kernels`, which reads the
circuit's row column and its table's gathered records
(:class:`~repro.circuit.gatestream.RowRecords`) and merely *labels* each
phase gate with its governing ``(parity, const)``.  All folding
arithmetic then happens on whole arrays, and each placeholder becomes
rows of the memoized phase block of the circuit's width
(:class:`~repro.circuit.gatestream.PhaseBlock`), spliced into the input's
row column, so the output circuit is built without a gate list.  The
property tests check the output gate for gate against the retained seed
implementation in :mod:`repro.reference`.

Soundness: per computational-basis "branch" the phase contributed depends
only on the parity's value, which is fixed along each branch; folding moves
the phase to a position where the same parity provably resided on a wire.
The test suite checks equivalence (up to global phase) by statevector
simulation on random circuits.
"""

from __future__ import annotations

import numpy as np

from ..circuit.circuit import Circuit
from ..circuit.decompose import DecompositionCache
from ..circuit.gatestream import RowRecords, phase_block
from ..passes.base import register_pass
from .base import CircuitOptimizer
from .cancel import cancel_circuit
from .. import _kernels


def fold_phases(circuit: Circuit) -> Circuit:
    """Apply one phase-folding sweep to a Clifford+T circuit.

    The compiled classifier labels each uncontrolled phase gate with a
    packed ``(parity, const)`` key.  ``np.unique`` over the parity ids
    groups equal parities with their first-occurrence position (where
    the seed sweep emits the placeholder), ``bincount`` folds the
    adjusted eighth-turns of every group in one shot, and each
    placeholder becomes the phase-block rows of its merge table entry.
    Those rows are scattered into the input's row column by position,
    and the output circuit is built from rows alone: it keeps the input
    table and adds only the phase-block gates it names.
    """
    rows = circuit.rows
    records = RowRecords(circuit.table)
    eighths = records.eighths.take(rows)
    phase_sel = eighths >= 0
    phase_pos = np.nonzero(phase_sel)[0]
    if len(phase_pos) == 0:
        return circuit.copy()

    packed = _kernels.fold_classify(rows, records, len(phase_pos))

    nonphase_pos = np.nonzero(~phase_sel)[0]
    pph = eighths[phase_pos].astype(np.int64)

    keep = packed >= 0  # empty parity: pure global phase, dropped
    phase_pos = phase_pos[keep]
    pph = pph[keep]
    packed = packed[keep]

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
    slots = np.full(2 * len(rows), -1, dtype=np.int64)
    slots[nonphase_pos * 2] = nonphase_rows
    slots[pos0[nz] * 2] = merged[:, 0]
    slots[pos0[nz] * 2 + 1] = merged[:, 1]
    return block.circuit(circuit, slots[slots >= 0], circuit.num_qubits)


@register_pass
class RotationMerging(CircuitOptimizer):
    """Decompose to Clifford+T, fold phases, then peephole.

    Models Feynman ``-toCliffordT``, VOQC ``optimize_nam`` and Pytket
    ``ZXGraphlikeOptimisation`` in the evaluation.
    """

    name = "rotation-merge"
    models = "Feynman -toCliffordT, VOQC, Pytket ZX"

    def __init__(self, window: int = 64) -> None:
        self.window = window

    def run(self, circuit: Circuit, cache: DecompositionCache) -> Circuit:
        folded = fold_phases(cache.clifford_t(circuit))
        return fold_phases(cancel_circuit(folded, self.window))
