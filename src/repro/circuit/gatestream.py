"""Per-row columns over a circuit's gate table.

The optimizer hot paths (the compiled cancel and fold kernels in
:mod:`repro._kernels`) and the snapshot writer ask three questions about
every gate: *what kind is it*, *which qubits does it touch*, and *how many
eighth-turns of phase does it apply*.  They ask them once per distinct
gate, never gate by gate: every gate value caches one packed
:attr:`~repro.circuit.gates.Gate.record` (shared instances build it once
per process), and :class:`RowRecords` gathers a gate table's records into
per-row columns with one ``b"".join`` and ``np.frombuffer`` each.  A
circuit's row column then indexes those columns.

:class:`PhaseBlock` holds the shared uncontrolled phase gates of one width
as rows to append after a gate table, with their record columns and the
``(eighths, qubit) -> rows`` merge table, so the passes that create phase
gates (the cancel kernel's merges, the phase fold's placeholders) name
them by row id.  One block per width is memoized with the shared gates.
"""

from __future__ import annotations

import operator
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from .circuit import Circuit
from .gates import (
    EIGHTHS_TO_KINDS,
    KIND_CODES,
    RECORD_FIELDS,
    Gate,
    GateKind,
    phase_gate,
    shared_memo,
)

#: Inverse of :data:`KIND_CODES` as a tuple indexed by code.
CODE_KINDS = tuple(
    kind for kind, _ in sorted(KIND_CODES.items(), key=lambda item: item[1])
)

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

#: numpy view of :data:`~repro.circuit.gates.RECORD_FIELDS`
RECORD_DTYPE = np.dtype(
    [
        ("kind", "u1"),
        ("eighths", "i1"),
        ("num_controls", "<i4"),
        ("num_targets", "<i4"),
        ("target", "<i4"),
        ("top", "<i4"),
    ]
)
assert RECORD_DTYPE.itemsize == RECORD_FIELDS.size

_RECORD = operator.attrgetter("record")


class RowRecords:
    """Per-row columns of a gate table, gathered from the rows' cached
    :attr:`~repro.circuit.gates.Gate.record`.

    ``kinds`` (``uint8`` kind codes), ``eighths`` (``int8``: the
    eighth-turns of an uncontrolled phase gate, T=1, S=2, Z=4, S†=6,
    T†=7, and ``-1`` for every other gate), ``num_controls``,
    ``num_targets``, ``target`` (first target) and ``top`` (highest
    qubit) hold one entry per row; ``qubits`` is every row's ``controls + targets`` back to back
    (``int32``), and ``keys`` the rows' ``(controls, targets)`` keys.
    """

    __slots__ = (
        "kinds",
        "eighths",
        "num_controls",
        "num_targets",
        "target",
        "top",
        "qubit_bytes",
        "qubits",
        "keys",
    )

    def __init__(self, table: Sequence[Gate]) -> None:
        fields, qubits, keys, _ = zip(*map(_RECORD, table)) if table else ((), (), (), ())
        columns = np.frombuffer(b"".join(fields), RECORD_DTYPE)
        # aligned contiguous copies: the packed fields are unaligned views,
        # slow to gather by row and not fit to hand to C
        self.kinds = columns["kind"].copy()
        self.eighths = columns["eighths"].copy()
        self.num_controls = columns["num_controls"].astype(np.int32)
        self.num_targets = columns["num_targets"].astype(np.int32)
        self.target = columns["target"].astype(np.int32)
        self.top = columns["top"].astype(np.int32)
        self.qubit_bytes = b"".join(qubits)
        self.qubits = np.frombuffer(self.qubit_bytes, "<i4")
        self.keys = keys

    def __len__(self) -> int:
        return len(self.keys)

    def ordinals(self, ids: Optional[Dict[bytes, int]] = None) -> np.ndarray:
        """Per row, an ``int64`` id of its ``(controls, targets)`` pair.

        Rows share an id exactly when they list the same qubits in the
        same order, which is what an inverse pair must match (a mask is a
        set).  Pairs already in ``ids`` keep their id; new ones get the
        next ids, in order of first occurrence, and are added to ``ids``.
        """
        ids = {} if ids is None else ids
        for key in dict.fromkeys(self.keys):
            if key not in ids:
                ids[key] = len(ids)
        return np.fromiter(map(ids.__getitem__, self.keys), np.int64, len(self.keys))

    def starts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Per row: its qubit count and the offset of its first qubit."""
        counts = self.num_controls + self.num_targets
        return counts, np.cumsum(counts) - counts

    def mask_words(self, words: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(controls, targets)`` bitmasks of every row, each split into
        ``words`` little-endian ``uint64`` words (shape ``(rows, words)``)."""
        counts, starts = self.starts()
        row = np.repeat(np.arange(len(self)), counts)
        is_control = np.arange(len(self.qubits)) - starts[row] < self.num_controls[row]
        qubits = self.qubits.astype(np.int64)
        bits = np.left_shift(np.uint64(1), (qubits & 63).astype(np.uint64))
        word = qubits >> 6
        out = []
        for sel in (is_control, ~is_control):
            masks = np.zeros((len(self), words), dtype=np.uint64)
            np.bitwise_or.at(masks, (row[sel], word[sel]), bits[sel])
            out.append(masks)
        return out[0], out[1]


#: Kind codes of the phase kinds, in block order (T, T†, S, S†, Z).
_PHASE_CODES = range(FIRST_PHASE_CODE, len(CODE_KINDS))


class PhaseBlock:
    """The shared uncontrolled phase gates of one circuit width, as rows
    to append after a gate table.

    Row ``b`` is ``phase_gate(CODE_KINDS[FIRST_PHASE_CODE + b // width],
    b % width)``.  The block keeps its rows' :class:`RowRecords`, their
    ``(controls, targets)`` ordinals together with the ``ids`` that seed
    a table's ordinals (so an equal pair gets one id in table and block),
    their ``(controls, targets)`` mask words, and ``merge``: ``merge[e,
    q]`` lists the block rows of the minimal phase sequence worth ``e``
    eighth-turns on qubit ``q``, padded with ``-1``.
    """

    __slots__ = ("width", "gates", "records", "ids", "ordinals", "masks", "merge")

    def __init__(self, width: int) -> None:
        self.width = width
        self.gates = [
            phase_gate(CODE_KINDS[code], q) for code in _PHASE_CODES for q in range(width)
        ]
        self.records = RowRecords(self.gates)
        self.ids: Dict[bytes, int] = {}
        self.ordinals = self.records.ordinals(self.ids)
        self.masks = self.records.mask_words((width + 63) // 64)
        self.merge = np.full((8, width, 2), -1, dtype=np.int64)
        for eighths, kinds in EIGHTHS_TO_KINDS.items():
            for j, kind in enumerate(kinds):
                block_row = (KIND_CODES[kind] - FIRST_PHASE_CODE) * width
                self.merge[eighths, :, j] = block_row + np.arange(width)

    def rows_after(self, table: Sequence[Gate], records: RowRecords) -> np.ndarray:
        """Where each block row goes when the block follows ``table``.

        Entry ``b`` is the row of ``table`` that already holds block gate
        ``b`` (the very object), or else ``len(table) + b``.  One trailing
        ``-1`` passes ``-1`` padding through, as in ``rows[merge]``.
        """
        m = len(table)
        rows = np.arange(m, m + len(self.gates) + 1, dtype=np.int64)
        rows[-1] = -1
        phase = np.flatnonzero(records.eighths >= 0)
        block = (records.kinds[phase] - FIRST_PHASE_CODE).astype(np.int64) * self.width
        block += records.target[phase]
        gates = self.gates
        held = np.array(
            [table[r] is gates[b] for r, b in zip(phase.tolist(), block.tolist())], dtype=bool
        )
        rows[block[held]] = phase[held]
        return rows

    def circuit(self, source: Circuit, rows: np.ndarray, num_qubits: int) -> Circuit:
        """The circuit applying ``rows`` of ``source.table`` followed by
        this block (``source``'s registers kept).

        Only the block gates ``rows`` names join the table, after the
        source rows and in block order; table rows nothing names are
        dropped.
        """
        table = source.table
        m = len(table)
        tail = rows >= m
        if tail.any():
            used, inverse = np.unique(rows[tail], return_inverse=True)
            table = table + [self.gates[b] for b in (used - m).tolist()]
            rows = rows.copy()
            rows[tail] = m + inverse
        return Circuit.from_distinct_rows(table, rows, num_qubits, source.registers)


@shared_memo(maxsize=64)
def phase_block(width: int) -> PhaseBlock:
    """The :class:`PhaseBlock` of ``width`` qubits, memoized for 64 widths
    and started over together with the shared gates."""
    return PhaseBlock(width)
