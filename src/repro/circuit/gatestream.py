"""Struct-of-arrays columns over a circuit's gates.

The optimizer and simulation hot paths (``circopt.cancel``,
``circopt.phase_poly``, ``circuit.statevector``) spend most of their time on
three questions about a gate: *what kind is it*, *which qubits does it
touch*, and *how many eighth-turns of phase does it apply*.  Answering them
through ``Gate`` objects costs an attribute lookup, an enum identity check
and often a set construction per query.  :class:`GateStream` answers them
through parallel numpy arrays with one entry per gate:

* ``kinds`` — ``uint8`` kind codes (:data:`KIND_CODES`);
* ``num_controls`` — ``int32`` control counts;
* ``ctrl_masks`` / ``tgt_masks`` / ``qubit_masks`` — per-gate qubit bitmasks.
  These are *object* arrays of Python ints because benchmark circuits
  routinely exceed 64 wires, so fixed-width integers would overflow;
* ``phase_eighths`` — ``int8``; the eighth-turn count of an *uncontrolled
  phase gate* (T=1, S=2, Z=4, S†=6, T†=7) and ``-1`` for every other gate.

A stream is a view of a :class:`~repro.circuit.circuit.Circuit`.  Each
column is computed once per row of the circuit's gate table and gathered
through the circuit's row column, so building a stream costs Python work
per *distinct* gate, and numpy work per gate.  The stream keeps the
circuit, so ``stream.gates`` is the circuit's own gate list and the
round-trip ``GateStream.from_gates(gs).to_gates() == gs`` is lossless by
construction: the arrays alone canonicalize control/target *order* (a mask
is a set), and the paper's evaluation requires bit-for-bit identical gate
lists before and after the vectorized rewrite.  :meth:`rebuild_gates`
reconstructs gates from the arrays alone (controls ascending) for callers
that want the canonical form.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from .circuit import Circuit
from .gates import PHASE_EIGHTHS, Gate, GateKind, shared_gate

#: Dense integer code per gate kind (stable across the package).
KIND_CODES = {
    GateKind.MCX: 0,
    GateKind.H: 1,
    GateKind.SWAP: 2,
    GateKind.T: 3,
    GateKind.TDG: 4,
    GateKind.S: 5,
    GateKind.SDG: 6,
    GateKind.Z: 7,
}

#: Inverse of :data:`KIND_CODES` as a tuple indexed by code.
CODE_KINDS = tuple(
    kind for kind, _ in sorted(KIND_CODES.items(), key=lambda item: item[1])
)

MCX_CODE = KIND_CODES[GateKind.MCX]
H_CODE = KIND_CODES[GateKind.H]
SWAP_CODE = KIND_CODES[GateKind.SWAP]

#: Codes ``>= FIRST_PHASE_CODE`` are diagonal phase kinds (T/T†/S/S†/Z).
FIRST_PHASE_CODE = KIND_CODES[GateKind.T]

#: ``INVERSE_CODES[c]`` is the kind code of the inverse of kind code ``c``
#: (phase kinds invert pairwise; MCX/H/SWAP/Z are self-inverse).
INVERSE_CODES = tuple(
    KIND_CODES[
        {
            GateKind.T: GateKind.TDG,
            GateKind.TDG: GateKind.T,
            GateKind.S: GateKind.SDG,
            GateKind.SDG: GateKind.S,
        }.get(kind, kind)
    ]
    for kind in CODE_KINDS
)

#: Eighth-turns applied by each kind code (0 for non-phase kinds).
CODE_EIGHTHS = tuple(PHASE_EIGHTHS.get(kind, 0) for kind in CODE_KINDS)

_CODE_EIGHTHS_ARR = np.array(CODE_EIGHTHS, dtype=np.int8)


class GateStream:
    """Parallel-array view of a :class:`Circuit` (see module docstring)."""

    __slots__ = (
        "circuit",
        "num_qubits",
        "kinds",
        "num_controls",
        "ctrl_masks",
        "tgt_masks",
        "qubit_masks",
        "phase_eighths",
        "_fold_cols",
    )

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.num_qubits = circuit.num_qubits
        table = circuit.table
        kinds, num_controls, eighths = table_columns(table)
        ctrl = _object_column([g.control_mask for g in table])
        tgt = _object_column([g.target_mask for g in table])
        rows = circuit.rows
        self.kinds = kinds[rows]
        self.num_controls = num_controls[rows]
        self.ctrl_masks = ctrl[rows]
        self.tgt_masks = tgt[rows]
        self.qubit_masks = (ctrl | tgt)[rows]
        self.phase_eighths = eighths[rows]
        self._fold_cols: tuple | None = None

    # -------------------------------------------------------------- building
    @classmethod
    def from_gates(cls, gates: Iterable[Gate], num_qubits: int = 0) -> "GateStream":
        """Stream of a bare gate list over at least ``num_qubits`` wires."""
        return cls(Circuit(num_qubits, gates))

    # ------------------------------------------------------------ columns
    @property
    def gates(self) -> List[Gate]:
        """The circuit's gate list (read-only)."""
        return self.circuit.gates

    def fold_columns(self):
        """Fixed-width qubit columns ``(ctrl0, tgt0, tgt1)`` (int32, lazy).

        Per gate: first control, first target, second target — ``-1``
        when absent.  Gates with two or more controls are not fully
        described (consumers must check ``num_controls``); the compiled
        fold kernel declines such streams and the pure-Python sweep,
        which reads the :class:`Gate` objects, takes over.  Computed per
        table row on first use, gathered by row and cached.
        """
        cols = self._fold_cols
        if cols is None:
            table = self.circuit.table
            m = len(table)
            ctrl0 = np.fromiter(
                (g.controls[0] if g.controls else -1 for g in table), np.int32, m
            )
            tgt0 = np.fromiter((g.targets[0] for g in table), np.int32, m)
            tgt1 = np.fromiter(
                (g.targets[1] if len(g.targets) > 1 else -1 for g in table),
                np.int32,
                m,
            )
            rows = self.circuit.rows
            cols = (ctrl0[rows], tgt0[rows], tgt1[rows])
            self._fold_cols = cols
        return cols

    # ------------------------------------------------------------ unpacking
    def to_gates(self) -> List[Gate]:
        """The original gate list (lossless round-trip)."""
        return list(self.gates)

    def rebuild_gates(self) -> List[Gate]:
        """Reconstruct gates from the arrays alone.

        Control and target order is canonicalized to ascending qubit index;
        the result is semantically identical to :meth:`to_gates` and equal to
        it whenever the source gates already listed qubits in ascending
        order.  Used by tests to check the arrays are faithful.
        """
        out: List[Gate] = []
        for i in range(len(self)):
            kind = CODE_KINDS[self.kinds[i]]
            controls = _mask_bits(self.ctrl_masks[i])
            targets = _mask_bits(self.tgt_masks[i])
            out.append(shared_gate(kind, controls, targets))
        return out

    # ------------------------------------------------------------- measures
    def __len__(self) -> int:
        return len(self.circuit)

    def t_count(self) -> int:
        """Number of T/T† gates, counted on the packed array."""
        return int(
            np.count_nonzero(
                (self.kinds == KIND_CODES[GateKind.T])
                | (self.kinds == KIND_CODES[GateKind.TDG])
            )
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<GateStream {self.num_qubits} qubits, {len(self)} gates>"


def table_columns(table: Sequence[Gate]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per table row: kind codes, control counts and phase eighth-turns.

    ``uint8``, ``int32`` and ``int8`` arrays, one entry per row; the
    eighth-turns follow the ``phase_eighths`` convention (``-1`` unless
    the row is an uncontrolled phase gate).
    """
    m = len(table)
    kinds = np.fromiter((KIND_CODES[g.kind] for g in table), np.uint8, m)
    num_controls = np.fromiter((len(g.controls) for g in table), np.int32, m)
    eighths = _CODE_EIGHTHS_ARR[kinds]
    eighths[(kinds < FIRST_PHASE_CODE) | (num_controls > 0)] = -1
    return kinds, num_controls, eighths


def qubit_ordinals(table: Sequence[Gate]) -> np.ndarray:
    """Per table row, an ``int64`` id of its ``(controls, targets)`` tuple.

    Rows share an id exactly when they list the same qubits in the same
    order, which is what an inverse pair must match (a mask is a set).
    """
    ids: dict = {}
    return np.fromiter(
        (ids.setdefault((g.controls, g.targets), len(ids)) for g in table),
        np.int64,
        len(table),
    )


def _object_column(values: list) -> np.ndarray:
    """A 1-D object array of ``values`` (Python ints stay unbounded)."""
    column = np.empty(len(values), dtype=object)
    column[:] = values
    return column


def _mask_bits(mask: int):
    bits = []
    q = 0
    while mask:
        if mask & 1:
            bits.append(q)
        mask >>= 1
        q += 1
    return tuple(bits)
