"""Optional compiled kernels with a pure-Python fallback.

This package holds the plain-C implementation of the innermost optimizer
scan (the cancellation stack sweep run to fixpoint) plus the ctypes
loader and the array packing that feeds it.  The cancel kernel reads a
circuit's row column as is: only the rows of its gate table are
described to C, and the surviving rows become the output circuit.
Selection happens once at import time:

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
import itertools
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


def _mask_words(qubit_lists: list, words: int) -> np.ndarray:
    """Row ``r`` of the result is the bitmask of ``qubit_lists[r]``,
    split into ``words`` little-endian 64-bit words."""
    lengths = [len(qubits) for qubits in qubit_lists]
    qubits = np.fromiter(itertools.chain.from_iterable(qubit_lists), np.int64, sum(lengths))
    rows = np.repeat(np.arange(len(qubit_lists)), lengths)
    out = np.zeros((len(qubit_lists), words), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (qubits & 63).astype(np.uint64))
    np.bitwise_or.at(out, (rows, qubits >> 6), bits)
    return out


def cancel_fixpoint(
    circuit: "Circuit", window: int, max_passes: int
) -> Optional["Circuit"]:
    """Run the cancel fixpoint over ``circuit`` through the compiled kernel.

    Returns the reduced circuit (same width and registers), or ``None``
    when the extension is unavailable or declines the input (the caller
    then falls back to the pure-Python sweep).  The kernel reads the
    circuit's row column directly and describes each table row once; the
    output circuit is built from the surviving rows, and its gates
    compare equal to the fallback's — merged phase gates come from the
    same memoized builders.
    """
    lib = _get_lib()
    if lib is None:
        return None
    n = len(circuit)
    if n == 0 or max_passes <= 0:
        return None
    from ..circuit.circuit import Circuit
    from ..circuit.gates import EIGHTHS_TO_KINDS, GateKind, phase_gate
    from ..circuit.gatestream import INVERSE_CODES, qubit_ordinals, table_columns

    table = circuit.table
    num_qubits = 1 + max(max(g.qubits) for g in table)
    words = (num_qubits + 63) // 64

    # One row per (phase kind, qubit) so merged phase gates are
    # addressable by row id from inside the C sweep; a memoized phase
    # gate already in the table keeps its own row.
    objs = list(table)
    row_of = {id(g): r for r, g in enumerate(objs)}
    phase_kinds = (GateKind.T, GateKind.TDG, GateKind.S, GateKind.SDG, GateKind.Z)
    synth_row = np.empty((len(phase_kinds), num_qubits), dtype=np.int64)
    for k, kind in enumerate(phase_kinds):
        for q in range(num_qubits):
            gate = phase_gate(kind, q)
            r = row_of.get(id(gate))
            if r is None:
                r = row_of[id(gate)] = len(objs)
                objs.append(gate)
            synth_row[k, q] = r
    merge_rows = np.full((8, num_qubits, 2), -1, dtype=np.int64)
    for eighths in range(8):
        for j, kind in enumerate(EIGHTHS_TO_KINDS[eighths]):
            merge_rows[eighths, :, j] = synth_row[phase_kinds.index(kind)]

    m = len(objs)
    kinds, _, ph = table_columns(objs)
    invk = np.array(INVERSE_CODES, dtype=np.uint8)[kinds]
    tgt = np.fromiter((g.targets[0] for g in objs), np.int32, m)
    tgt[ph < 0] = 0
    cm = _mask_words([g.controls for g in objs], words)
    tm = _mask_words([g.targets for g in objs], words)
    qm = cm | tm
    ords = qubit_ordinals(objs)

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
    return Circuit.from_rows(
        objs, out_rows[:res], max(circuit.num_qubits, num_qubits), circuit.registers
    )


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
