"""Compact binary snapshots of circuits (the artifact-cache circuit format).

The evaluation harness caches compiled circuits on disk so that a
(benchmark, depth, optimization) point is expanded to gates exactly once
per source/config/version.  A snapshot stores a :class:`Circuit`'s own
storage: its table of distinct gates and its row column.  Each table row
is written as a kind code and its qubit *list* (controls first, original
order).  Qubit lists rather than bitmasks are what make the format
lossless: a mask is a set, and the Figure 5 MCX expansion is sensitive to
control order, so canonicalizing order on disk would change downstream
optimizer output gate-for-gate.  Loading takes one shared ``Gate`` per
table row (:func:`~repro.circuit.gates.shared_gate`), never one per gate
application.

Layout (all integers little-endian)::

    magic   b"RQCS2\\0"
    u32     header length
    bytes   JSON header: {"num_qubits", "num_gates", "table_size",
                          "qubit_words", "registers": [[name, offset, width], ...]}
    u8[m]   kinds          (per table row; gates.KIND_CODES)
    i32[m]  num_controls   (per table row)
    u8[m]   num_targets    (per table row; 1, or 2 for SWAP)
    i32[w]  qubits         (per table row: controls then targets, original order)
    i32[n]  rows           (per gate: the table row it applies)
    u32     CRC-32 of every byte before it

``load_bytes(dump_bytes(c)) == c`` holds gate-for-gate, registers and
``num_qubits`` included, for every circuit either gate level can produce;
the property test in ``tests/test_snapshot.py`` checks this on random
Clifford+T and MCX circuits with shuffled control order.
"""

from __future__ import annotations

import json
import struct
import zlib
from pathlib import Path
from typing import Union

import numpy as np

from ..errors import ReproError
from .circuit import Circuit, Register
from .gates import shared_gate
from .gatestream import CODE_KINDS, RowRecords

MAGIC = b"RQCS2\x00"

#: Bump when the layout changes; part of the artifact-cache key.
FORMAT_VERSION = 2

#: bytes per table row in the fixed-width columns (kind, controls, targets)
_ROW_BYTES = 1 + 4 + 1


class SnapshotError(ReproError):
    """A snapshot blob is truncated, corrupt, or from an unknown format."""


def dump_bytes(circuit: Circuit) -> bytes:
    """Serialize ``circuit`` to a compact binary snapshot.

    The per-row columns are the table's gathered records
    (:class:`~repro.circuit.gatestream.RowRecords`).
    """
    records = RowRecords(circuit.table)
    header = json.dumps(
        {
            "num_qubits": circuit.num_qubits,
            "num_gates": len(circuit),
            "table_size": len(records),
            "qubit_words": len(records.qubits),
            "registers": [
                [r.name, r.offset, r.width] for r in circuit.registers.values()
            ],
        },
        sort_keys=True,
    ).encode("utf-8")
    body = b"".join(
        (
            MAGIC,
            struct.pack("<I", len(header)),
            header,
            records.kinds.tobytes(),
            records.num_controls.astype("<i4").tobytes(),
            records.num_targets.astype(np.uint8).tobytes(),
            records.qubit_bytes,
            circuit.rows.astype("<i4").tobytes(),
        )
    )
    return body + struct.pack("<I", zlib.crc32(body))


def load_bytes(data: bytes) -> Circuit:
    """Reconstruct the circuit stored by :func:`dump_bytes` (lossless).

    Every corruption shape — truncation, a flipped bit anywhere (caught
    by the CRC), a mangled header, an invalid kind code, count, row
    index or qubit — surfaces as :class:`SnapshotError`, which the
    artifact cache treats as a miss (recompile) rather than a crash.
    """
    try:
        return _load_bytes(data)
    except SnapshotError:
        raise
    except Exception as err:
        raise SnapshotError(f"corrupt snapshot: {err}") from None


def _load_bytes(data: bytes) -> Circuit:
    if not data.startswith(MAGIC):
        raise SnapshotError("not a circuit snapshot (bad magic)")
    if len(data) < len(MAGIC) + 8:
        raise SnapshotError(f"truncated snapshot: {len(data)} bytes")
    (crc,) = struct.unpack_from("<I", data, len(data) - 4)
    if zlib.crc32(memoryview(data)[:-4]) != crc:
        raise SnapshotError("snapshot checksum mismatch")
    offset = len(MAGIC)
    (header_len,) = struct.unpack_from("<I", data, offset)
    offset += 4
    try:
        header = json.loads(data[offset : offset + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise SnapshotError(f"corrupt snapshot header: {err}") from None
    offset += header_len
    num_qubits = header["num_qubits"]
    n = header["num_gates"]
    m = header["table_size"]
    qubit_words = header["qubit_words"]
    if min(num_qubits, n, m, qubit_words) < 0:
        raise SnapshotError("negative size in snapshot header")
    expected = offset + m * _ROW_BYTES + 4 * qubit_words + 4 * n + 4
    if len(data) != expected:
        raise SnapshotError(
            f"truncated snapshot: {len(data)} bytes, expected {expected}"
        )
    kinds = np.frombuffer(data, dtype=np.uint8, count=m, offset=offset)
    offset += m
    num_controls = np.frombuffer(data, dtype="<i4", count=m, offset=offset)
    offset += 4 * m
    num_targets = np.frombuffer(data, dtype=np.uint8, count=m, offset=offset)
    offset += m
    qubits = np.frombuffer(data, dtype="<i4", count=qubit_words, offset=offset)
    offset += 4 * qubit_words
    rows = np.frombuffer(data, dtype="<i4", count=n, offset=offset)

    if m and int(kinds.max()) >= len(CODE_KINDS):
        raise SnapshotError("invalid gate kind code")
    if m and (int(num_controls.min()) < 0 or not np.isin(num_targets, (1, 2)).all()):
        raise SnapshotError("invalid control or target count")
    if int(num_controls.sum()) + int(num_targets.sum()) != qubit_words:
        raise SnapshotError("control and target counts do not match the qubit words")
    if n and (int(rows.min()) < 0 or int(rows.max()) >= m):
        raise SnapshotError("row index outside the gate table")
    if qubit_words and (int(qubits.min()) < 0 or int(qubits.max()) >= num_qubits):
        raise SnapshotError("qubit index outside the circuit")

    qubit_list = qubits.tolist()
    table = []
    pos = 0
    for code, nc, nt in zip(kinds.tolist(), num_controls.tolist(), num_targets.tolist()):
        split = pos + nc
        end = split + nt
        controls = tuple(qubit_list[pos:split])
        table.append(shared_gate(CODE_KINDS[code], controls, tuple(qubit_list[split:end])))
        pos = end
    registers = {
        name: Register(name, reg_offset, width)
        for name, reg_offset, width in header["registers"]
    }
    return Circuit.from_rows(table, rows, num_qubits, registers)


def dump(circuit: Circuit, path: Union[str, Path]) -> Path:
    """Write a snapshot file; returns the path."""
    path = Path(path)
    path.write_bytes(dump_bytes(circuit))
    return path


def load(path: Union[str, Path]) -> Circuit:
    """Read a snapshot file written by :func:`dump`."""
    return load_bytes(Path(path).read_bytes())
