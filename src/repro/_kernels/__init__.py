"""Compiled kernels for the cancel fixpoint and the phase-fold classifier.

This package holds the plain-C implementation of the two sequential
optimizer sweeps plus the ctypes loader and the array packing that feeds
them.  Both kernels read a circuit as stored: its row column and the gate
table's per-row columns, gathered from each gate's cached record
(:class:`~repro.circuit.gatestream.RowRecords`).  The cancel kernel also
sees the memoized phase block of the table's width
(:class:`~repro.circuit.gatestream.PhaseBlock`), whose rows the sweep
names when it merges phase gates; the surviving rows become the output
circuit.

The shared object ``_cancel_kernel.so`` is loaded on the first kernel
call.  When it is missing or older than ``cancel.c`` or ``fold.c``, that
call first builds it with the local C compiler
(:func:`~repro._kernels.build.build`).  A failed build, a library that
does not load, or one with another ABI stamp raises a
:class:`RuntimeError` naming the library path; there is no fallback.
The frozen seed sweeps in :mod:`repro.reference` are the oracle that
``tests/test_kernels.py`` checks both kernels against.
"""

from __future__ import annotations

import ctypes
import threading
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuit.circuit import Circuit
    from ..circuit.gatestream import RowRecords

#: ABI stamp expected from the shared object; must match
#: ``REPRO_KERNELS_ABI`` in ``cancel.c``.
KERNELS_ABI = 2

_lib: Optional[ctypes.CDLL] = None
_load_lock = threading.Lock()


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    i64 = ctypes.c_int64
    p_i64 = ctypes.POINTER(ctypes.c_int64)
    p_i32 = ctypes.POINTER(ctypes.c_int32)
    p_u8 = ctypes.POINTER(ctypes.c_uint8)
    p_i8 = ctypes.POINTER(ctypes.c_int8)
    p_u64 = ctypes.POINTER(ctypes.c_uint64)
    lib.repro_cancel_fixpoint.restype = i64
    lib.repro_cancel_fixpoint.argtypes = [
        i64, p_i64,          # n, gate_rows
        i64,                 # words
        p_u8, p_u8, p_i8,    # kinds, invk, ph
        p_i64, p_i32,        # ords, tgt
        p_u64, p_u64, p_u64,  # cm, tm, qm
        i64, p_i64,          # num_qubits, merge_rows
        i64, i64,            # window, max_passes
        p_i64,               # out_rows
    ]
    lib.repro_fold_classify.restype = i64
    lib.repro_fold_classify.argtypes = [
        i64, p_i32,          # n, gate_rows
        p_u8, p_i8,          # kinds, phase eighths
        p_i32, p_i32,        # num_controls, num_targets
        p_i64, p_i32,        # qubit offsets, qubits
        i64,                 # num_qubits
        p_i64,               # out_keys
    ]
    return lib


def _load() -> ctypes.CDLL:
    # imported here so that ``python -m repro._kernels.build`` runs the
    # module once, as ``__main__``
    from .build import build, is_stale, library_path

    path = library_path()
    if is_stale():
        build()
    try:
        lib = ctypes.CDLL(str(path))
        lib.repro_kernels_abi.restype = ctypes.c_int64
        abi = lib.repro_kernels_abi()
    except (OSError, AttributeError) as exc:
        raise RuntimeError(f"cannot load {path}: {exc}") from exc
    if abi != KERNELS_ABI:
        raise RuntimeError(
            f"{path} has ABI {abi}, expected {KERNELS_ABI}; "
            "rebuild it with `python -m repro._kernels.build`"
        )
    return _configure(lib)


def _get_lib() -> ctypes.CDLL:
    global _lib
    if _lib is None:
        with _load_lock:
            if _lib is None:
                _lib = _load()
    return _lib


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def cancel_fixpoint(circuit: "Circuit", window: int, max_passes: int) -> "Circuit":
    """Run the cancel fixpoint over ``circuit`` through the compiled kernel.

    Returns the reduced circuit (same width and registers); an empty
    circuit or ``max_passes <= 0`` comes back unchanged.  The kernel
    reads the circuit's row column directly.  It sees the table's
    gathered records followed by the phase block of the width the table
    touches; a block gate the table already holds is named by its table
    row.  The output table keeps the surviving table rows and adds only
    the block gates the output names, so its merged phase gates are the
    shared instances.
    """
    n = len(circuit)
    if n == 0 or max_passes <= 0:
        return circuit.copy()
    lib = _get_lib()
    from ..circuit.gatestream import INVERSE_CODES, RowRecords, phase_block

    table = circuit.table
    records = RowRecords(table)
    # mask words cover the qubits the table touches, which a wide
    # register can leave far below ``circuit.num_qubits``
    num_qubits = 1 + int(records.top.max())
    words = (num_qubits + 63) // 64
    block = phase_block(num_qubits)
    merge_rows = block.rows_after(table, records)[block.merge]
    kinds = np.concatenate((records.kinds, block.records.kinds))
    invk = np.array(INVERSE_CODES, dtype=np.uint8)[kinds]
    ph = np.concatenate((records.eighths, block.records.eighths))
    tgt = np.concatenate((records.target, block.records.target))
    ords = np.concatenate((records.ordinals(dict(block.ids)), block.ordinals))
    cm, tm = records.mask_words(words)
    cm = np.concatenate((cm, block.masks[0]))
    tm = np.concatenate((tm, block.masks[1]))
    qm = cm | tm

    gate_rows = circuit.rows.astype(np.int64)
    out_rows = np.empty(n, dtype=np.int64)
    res = lib.repro_cancel_fixpoint(
        n,
        _ptr(gate_rows, ctypes.c_int64),
        words,
        _ptr(kinds, ctypes.c_uint8),
        _ptr(invk, ctypes.c_uint8),
        _ptr(ph, ctypes.c_int8),
        _ptr(ords, ctypes.c_int64),
        _ptr(tgt, ctypes.c_int32),
        _ptr(cm, ctypes.c_uint64),
        _ptr(tm, ctypes.c_uint64),
        _ptr(qm, ctypes.c_uint64),
        num_qubits,
        _ptr(merge_rows, ctypes.c_int64),
        window,
        max_passes,
        _ptr(out_rows, ctypes.c_int64),
    )
    if res < 0:
        raise MemoryError("repro_cancel_fixpoint could not allocate its buffers")
    return block.circuit(circuit, out_rows[:res], max(circuit.num_qubits, num_qubits))


def fold_classify(rows: np.ndarray, records: "RowRecords", phase_count: int) -> np.ndarray:
    """Classify the phase gates of a row column by parity.

    ``rows`` indexes the table ``records`` was gathered from and holds
    ``phase_count`` uncontrolled phase gates (at least one).  Returns an
    int64 array with one entry per such gate in stream order:
    ``parity_id * 2 + affine_const``, or ``-1`` when the parity is empty.
    """
    lib = _get_lib()
    gate_rows = np.ascontiguousarray(rows, dtype=np.int32)
    offsets = records.starts()[1].astype(np.int64)
    out_keys = np.empty(phase_count, dtype=np.int64)
    res = lib.repro_fold_classify(
        len(gate_rows),
        _ptr(gate_rows, ctypes.c_int32),
        _ptr(records.kinds, ctypes.c_uint8),
        _ptr(records.eighths, ctypes.c_int8),
        _ptr(records.num_controls, ctypes.c_int32),
        _ptr(records.num_targets, ctypes.c_int32),
        _ptr(offsets, ctypes.c_int64),
        _ptr(records.qubits, ctypes.c_int32),
        1 + int(records.top.max()),
        _ptr(out_keys, ctypes.c_int64),
    )
    if res < 0:
        raise MemoryError("repro_fold_classify could not allocate its buffers")
    return out_keys
