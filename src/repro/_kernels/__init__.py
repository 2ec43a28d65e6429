"""Optional compiled kernels with a pure-Python fallback.

This package holds the plain-C implementation of the innermost optimizer
scan (the cancellation stack sweep run to fixpoint) plus the ctypes
loader and the array packing that feeds it.  The cancel kernel reads a
circuit's row column as is.  The rows described to C are the gate
table's, gathered from each gate's cached record
(:class:`~repro.circuit.gatestream.RowRecords`), followed by the
memoized phase block of the table's width
(:class:`~repro.circuit.gatestream.PhaseBlock`), whose rows the sweep
names when it merges phase gates.  The surviving rows become the output
circuit.  Selection happens once at import time:

* ``REPRO_NO_EXT=1`` in the environment disables the extension outright.
* Otherwise, if ``_cancel_kernel.so`` exists next to this file (built by
  ``python -m repro._kernels.build``) and reports the expected ABI, it
  is used; any load failure silently falls back to pure Python.

Callers never depend on the extension being present:
:func:`cancel_fixpoint` returns ``None`` whenever the compiled path is
unavailable or declines the input, and ``repro.circopt.cancel`` then
runs its own vectorized pure-Python sweep.  Both paths are exercised by
``tests/test_kernels.py`` and by the CI ``kernels`` job.
"""

from __future__ import annotations

import ctypes
import os
from typing import TYPE_CHECKING, Optional

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuit.circuit import Circuit

#: ABI stamp expected from the shared object; must match
#: ``REPRO_KERNELS_ABI`` in ``cancel.c``.  A stale .so from an older
#: checkout is ignored rather than trusted.
KERNELS_ABI = 1

_lib: Optional[ctypes.CDLL] = None
_load_attempted = False
_unavailable_reason = "not loaded yet"


def _library_path() -> str:
    from .build import library_path

    return str(library_path())


def _configure(lib: ctypes.CDLL) -> ctypes.CDLL:
    lib.repro_kernels_abi.restype = ctypes.c_int64
    lib.repro_kernels_abi.argtypes = []
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
        i64,                 # n
        p_u8, p_i32,         # kinds, num_controls
        p_i32, p_i32, p_i32,  # ctrl0, tgt0, tgt1
        p_i8,                # phase eighths
        i64,                 # num_qubits
        p_i64,               # out_keys
    ]
    return lib


def _try_load() -> Optional[ctypes.CDLL]:
    global _unavailable_reason
    if os.environ.get("REPRO_NO_EXT") == "1":
        _unavailable_reason = "disabled by REPRO_NO_EXT=1"
        return None
    path = _library_path()
    if not os.path.exists(path):
        _unavailable_reason = (
            f"{path} not built (run `python -m repro._kernels.build`)"
        )
        return None
    try:
        lib = ctypes.CDLL(path)
        got = lib.repro_kernels_abi()
    except (OSError, AttributeError) as exc:
        _unavailable_reason = f"failed to load {path}: {exc}"
        return None
    if got != KERNELS_ABI:
        _unavailable_reason = (
            f"{path} has ABI {got}, expected {KERNELS_ABI}; rebuild it"
        )
        return None
    _unavailable_reason = ""
    return _configure(lib)


def _get_lib() -> Optional[ctypes.CDLL]:
    global _lib, _load_attempted
    if not _load_attempted:
        _lib = _try_load()
        _load_attempted = True
    return _lib


def reload_extension() -> bool:
    """Re-attempt loading the extension (used by tests after a build)."""
    global _lib, _load_attempted
    _load_attempted = False
    _lib = None
    return _get_lib() is not None


def extension_available() -> bool:
    """True when the compiled cancel kernel is loaded and usable."""
    return _get_lib() is not None


def extension_status() -> str:
    """Human-readable availability: empty string means available."""
    _get_lib()
    return _unavailable_reason


def _ptr(arr: np.ndarray, ctype):
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def cancel_fixpoint(
    circuit: "Circuit", window: int, max_passes: int
) -> Optional["Circuit"]:
    """Run the cancel fixpoint over ``circuit`` through the compiled kernel.

    Returns the reduced circuit (same width and registers), or ``None``
    when the extension is unavailable or declines the input (the caller
    then falls back to the pure-Python sweep).  The kernel reads the
    circuit's row column directly.  It sees the table's gathered records
    followed by the phase block of the width the table touches; a block
    gate the table already holds is named by its table row.  The output
    table keeps the surviving table rows and adds only the block gates the
    output names, so its gates compare equal to the fallback's, and its
    merged phase gates are the same shared instances.
    """
    lib = _get_lib()
    if lib is None:
        return None
    n = len(circuit)
    if n == 0 or max_passes <= 0:
        return None
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
        return None
    return block.circuit(circuit, out_rows[:res], max(circuit.num_qubits, num_qubits))


def fold_classify(stream) -> Optional[np.ndarray]:
    """Classify phase gates by parity through the compiled kernel.

    Returns an int64 array with one entry per uncontrolled phase gate in
    stream order — ``parity_id * 2 + affine_const``, or ``-1`` when the
    parity is empty — or ``None`` when the extension is unavailable or
    the stream contains gates the packed columns cannot describe (the
    caller then runs the pure-Python wire-state sweep).
    """
    lib = _get_lib()
    if lib is None:
        return None
    n = len(stream)
    eighths = stream.phase_eighths
    phase_count = int(np.count_nonzero(eighths >= 0))
    if n == 0 or phase_count == 0:
        return np.empty(0, dtype=np.int64)
    ctrl0, tgt0, tgt1 = stream.fold_columns()
    num_qubits = stream.num_qubits
    highest = max(int(ctrl0.max()), int(tgt0.max()), int(tgt1.max()))
    if highest >= num_qubits:
        return None  # stream wider than declared; let Python handle it
    out_keys = np.empty(phase_count, dtype=np.int64)
    res = lib.repro_fold_classify(
        n,
        _ptr(stream.kinds, ctypes.c_uint8),
        _ptr(stream.num_controls, ctypes.c_int32),
        _ptr(ctrl0, ctypes.c_int32),
        _ptr(tgt0, ctypes.c_int32),
        _ptr(tgt1, ctypes.c_int32),
        _ptr(eighths, ctypes.c_int8),
        num_qubits,
        _ptr(out_keys, ctypes.c_int64),
    )
    if res < 0:
        return None
    return out_keys
