"""Per-gate records and the row-column paths built on them.

Every gate value caches one packed record, and
:class:`~repro.circuit.gatestream.RowRecords` gathers a table's records
into columns for the cancel and fold kernels and the snapshot writer.
The per-row derivations these columns replaced are kept here as oracles:
``table_columns``, ``qubit_ordinals``, ``_mask_words`` and the snapshot
column writer, plus the per-gate interning loop
:meth:`Circuit.expand_rows` used before it interned by ``np.unique``.
"""

from __future__ import annotations

import itertools
import json
import struct
import zlib

import hypothesis.strategies as st
import numpy as np
from hypothesis import given, settings

from repro import reference
from repro.circopt import cancel_circuit, fold_phases
from repro.circuit import Circuit, Register, cnot, h, s, t, tdg, toffoli, x
from repro.circuit.gates import PHASE_EIGHTHS, Gate, GateKind, mcx, phase_gate, reset_shared_gates
from repro.circuit.gatestream import (
    CODE_KINDS,
    FIRST_PHASE_CODE,
    KIND_CODES,
    RowRecords,
    phase_block,
)
from repro.circuit.snapshot import MAGIC, dump_bytes

_CODE_EIGHTHS = np.array([PHASE_EIGHTHS.get(kind, 0) for kind in CODE_KINDS], dtype=np.int8)


# ------------------------------------------------------------------ oracles
def table_columns(table):
    """Per table row: kind codes, control counts and phase eighth-turns."""
    m = len(table)
    kinds = np.fromiter((KIND_CODES[g.kind] for g in table), np.uint8, m)
    num_controls = np.fromiter((len(g.controls) for g in table), np.int32, m)
    eighths = _CODE_EIGHTHS[kinds]
    eighths[(kinds < FIRST_PHASE_CODE) | (num_controls > 0)] = -1
    return kinds, num_controls, eighths


def qubit_ordinals(table):
    """Per table row, an id of its ``(controls, targets)`` tuple."""
    ids: dict = {}
    return np.fromiter(
        (ids.setdefault((g.controls, g.targets), len(ids)) for g in table),
        np.int64,
        len(table),
    )


def _mask_words(qubit_lists, words):
    """Row ``r`` is the bitmask of ``qubit_lists[r]`` in ``words`` words."""
    lengths = [len(qubits) for qubits in qubit_lists]
    qubits = np.fromiter(itertools.chain.from_iterable(qubit_lists), np.int64, sum(lengths))
    rows = np.repeat(np.arange(len(qubit_lists)), lengths)
    out = np.zeros((len(qubit_lists), words), dtype=np.uint64)
    bits = np.left_shift(np.uint64(1), (qubits & 63).astype(np.uint64))
    np.bitwise_or.at(out, (rows, qubits >> 6), bits)
    return out


def dump_bytes_oracle(circuit):
    """The snapshot writer as it built its columns gate by gate."""
    table = circuit.table
    m = len(table)
    qubits = np.fromiter(itertools.chain.from_iterable(g.qubits for g in table), dtype="<i4")
    header = json.dumps(
        {
            "num_qubits": circuit.num_qubits,
            "num_gates": len(circuit),
            "table_size": m,
            "qubit_words": len(qubits),
            "registers": [[r.name, r.offset, r.width] for r in circuit.registers.values()],
        },
        sort_keys=True,
    ).encode("utf-8")
    body = b"".join(
        (
            MAGIC,
            struct.pack("<I", len(header)),
            header,
            bytes(KIND_CODES[g.kind] for g in table),
            np.fromiter((len(g.controls) for g in table), "<i4", m).tobytes(),
            bytes(len(g.targets) for g in table),
            qubits.tobytes(),
            circuit.rows.astype("<i4").tobytes(),
        )
    )
    return body + struct.pack("<I", zlib.crc32(body))


def expand_rows_oracle(circuit, expansions):
    """``(table, rows, num_qubits)`` of :meth:`Circuit.expand_rows`, interned
    gate by gate in a dict keyed by ``id()``."""
    row_of: dict = {}
    table = []
    flat = []
    num_qubits = circuit.num_qubits
    for gate in itertools.chain.from_iterable(expansions):
        row = row_of.get(id(gate))
        if row is None:
            row = row_of[id(gate)] = len(table)
            table.append(gate)
            num_qubits = max(num_qubits, max(gate.qubits) + 1)
        flat.append(row)
    flat_rows = np.array(flat, dtype=np.int32)
    lengths = np.fromiter(map(len, expansions), np.int64, len(expansions))
    rows = circuit.rows
    take = lengths[rows]
    shift = np.repeat((np.cumsum(lengths) - lengths)[rows] - (np.cumsum(take) - take), take)
    return table, flat_rows[shift + np.arange(int(take.sum()))], num_qubits


# --------------------------------------------------------------- strategies
_PHASE = [GateKind.T, GateKind.TDG, GateKind.S, GateKind.SDG, GateKind.Z]


@st.composite
def _gate(draw, width: int):
    """One gate over ``width`` wires: every kind, controlled phases, SWAP,
    controlled H and multi-control MCX; a shared instance or an equal but
    distinct direct ``Gate(...)``."""
    kind = draw(st.sampled_from([GateKind.MCX, GateKind.H, GateKind.SWAP] + _PHASE))
    num_targets = 2 if kind is GateKind.SWAP else 1
    if width < num_targets:
        kind, num_targets = GateKind.MCX, 1
    max_controls = min(width - num_targets, 4 if kind is GateKind.MCX else 2)
    num_controls = draw(st.integers(0, max_controls))
    qubits = draw(
        st.lists(
            st.integers(0, width - 1),
            min_size=num_controls + num_targets,
            max_size=num_controls + num_targets,
            unique=True,
        )
    )
    controls, targets = tuple(qubits[:num_controls]), tuple(qubits[num_controls:])
    if draw(st.booleans()):
        return Gate(kind, controls, targets)
    return mcx(controls, targets[0]) if kind is GateKind.MCX else Gate(
        kind, controls, targets
    ).inverse().inverse()


def _tables():
    return st.sampled_from([1, 63, 64, 65, 130]).flatmap(
        lambda width: st.tuples(st.just(width), st.lists(_gate(width), max_size=40))
    )


# ------------------------------------------------------------------ records
@settings(max_examples=80, deadline=None)
@given(_tables())
def test_gathered_records_match_per_row_derivations(drawn):
    width, gates = drawn
    circuit = Circuit(width, gates)
    table = circuit.table
    records = RowRecords(table)
    kinds, num_controls, eighths = table_columns(table)
    assert np.array_equal(records.kinds, kinds)
    assert np.array_equal(records.num_controls, num_controls)
    assert np.array_equal(records.eighths, eighths)
    assert records.num_targets.tolist() == [len(g.targets) for g in table]
    assert records.top.tolist() == [max(g.qubits) for g in table]
    assert records.qubits.tolist() == [q for g in table for q in g.qubits]
    assert np.array_equal(records.ordinals(), qubit_ordinals(table))
    words = (width + 63) // 64
    controls, targets = records.mask_words(words)
    assert np.array_equal(controls, _mask_words([g.controls for g in table], words))
    assert np.array_equal(targets, _mask_words([g.targets for g in table], words))
    assert dump_bytes(circuit) == dump_bytes_oracle(circuit)


@settings(max_examples=40, deadline=None)
@given(_tables())
def test_block_seeded_ordinals_agree_with_table_ordinals(drawn):
    """A table's ordinals seeded with the phase block's ids give equal ids
    exactly to equal ``(controls, targets)`` pairs across table and block."""
    width, gates = drawn
    table = Circuit(width, gates).table
    records = RowRecords(table)
    block = phase_block(1 + int(records.top.max()) if table else 1)
    got = np.concatenate((records.ordinals(dict(block.ids)), block.ordinals)).tolist()
    want = qubit_ordinals(list(table) + block.gates).tolist()
    pairs = dict(zip(got, want))
    assert [pairs[g] for g in got] == want
    assert len(set(pairs.values())) == len(pairs)


def test_control_order_and_distinct_objects():
    """A mask is a set, an ordinal is not: reordered controls get their
    own ordinal; an equal but distinct object keeps its own row and shares
    the ordinal."""
    direct = Gate(GateKind.MCX, (1, 2), (3,))
    circuit = Circuit(4, [toffoli(1, 2, 3), toffoli(2, 1, 3), direct])
    assert len(circuit.table) == 3
    ords = RowRecords(circuit.table).ordinals().tolist()
    assert ords[0] != ords[1]
    assert ords[2] == ords[0]


def test_record_does_not_need_a_t_cost():
    """Controlled phase gates have no T cost, yet pass through the cancel
    kernel; building their record must not ask for one."""
    gate = Gate(GateKind.T, (1,), (0,))
    fields, qubits, key, top = gate.record
    assert (top, len(fields)) == (1, 18)
    assert RowRecords([gate]).eighths.tolist() == [-1]


# -------------------------------------------------------------- expand_rows
@st.composite
def _expansion_case(draw):
    pool = [x(0), cnot(0, 1), h(2), t(1), Gate(GateKind.MCX, (0,), (1,)), toffoli(0, 1, 5), s(7)]
    width = draw(st.integers(2, 4))
    rows = draw(st.lists(st.sampled_from([x(0), cnot(0, 1), h(1), t(0)]), min_size=1, max_size=12))
    circuit = Circuit(width, rows)
    circuit.add_register(Register("r", 0, 2))
    expansions = [
        draw(st.lists(st.sampled_from(pool), max_size=4)) for _ in circuit.table
    ]
    return circuit, expansions


@settings(max_examples=80, deadline=None)
@given(_expansion_case())
def test_expand_rows_matches_per_gate_interning(case):
    circuit, expansions = case
    got = circuit.expand_rows(expansions)
    table, rows, num_qubits = expand_rows_oracle(circuit, expansions)
    assert [id(g) for g in got.table] == [id(g) for g in table]
    assert got.rows.tolist() == rows.tolist()
    assert got.num_qubits == num_qubits
    assert got.registers == circuit.registers
    assert got.gates == [g for r in circuit.rows.tolist() for g in expansions[r]]


# --------------------------------------------------------- row-column outputs
def _distinct_and_used(circuit):
    assert len({id(g) for g in circuit.table}) == len(circuit.table)
    assert (np.bincount(circuit.rows, minlength=len(circuit.table)) > 0).all()


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([2, 3, 70]).flatmap(
    lambda width: st.tuples(st.just(width), st.lists(_gate(width), max_size=40))
))
def test_cancel_and_fold_outputs_hold_distinct_used_rows(drawn):
    """The phase fold and the cancel fixpoint keep the input table's rows,
    add only the phase-block gates their output names, and drop unused
    rows."""
    width, gates = drawn
    circuit = Circuit(width, gates)
    source_row = {id(g): r for r, g in enumerate(circuit.table)}
    cancelled = cancel_circuit(circuit)
    folded = fold_phases(circuit)
    for out in (folded, cancelled):
        _distinct_and_used(out)
        kept = [source_row[id(g)] for g in out.table if id(g) in source_row]
        assert kept == sorted(kept)
        for gate in out.table[len(kept):]:
            assert gate is phase_gate(gate.kind, gate.targets[0])
    assert folded.gates == reference.fold_phases_seed(circuit).gates
    assert cancelled.gates == reference.cancel_to_fixpoint_seed(circuit.gates, 64, 20)


def test_wide_register_sizes_masks_by_the_gates():
    """A 5000-qubit register whose gates touch qubits 0-1: the cancel
    kernel gives the seed's gates, and the width survives."""
    gates = [h(0), t(0), cnot(0, 1), tdg(0), cnot(0, 1), s(1), s(1), x(1), x(1), t(0), t(1)]
    circuit = Circuit(5000, gates)
    cancelled = cancel_circuit(circuit)
    assert cancelled.gates == reference.cancel_to_fixpoint_seed(gates, 64, 20)
    assert cancelled.num_qubits == 5000
    folded = fold_phases(circuit)
    assert folded.gates == reference.fold_phases_seed(circuit).gates
    assert folded.num_qubits == 5000


def test_phase_block_is_bounded_and_starts_over_with_the_shared_gates():
    for width in range(1, 80):
        phase_block(width)
    assert phase_block.cache_info().currsize <= 64
    block = phase_block(3)
    assert block.gates[0] is phase_gate(GateKind.T, 0)
    reset_shared_gates()
    fresh = phase_block(3)
    assert fresh is not block
    assert fresh.gates[0] is phase_gate(GateKind.T, 0)
    assert [g.kind for g in fresh.gates[::3]] == _PHASE
    # merge[e, q] is the minimal phase sequence worth e eighth-turns
    seq = [fresh.gates[r] for r in fresh.merge[3, 2].tolist() if r >= 0]
    assert seq == [phase_gate(GateKind.S, 2), phase_gate(GateKind.T, 2)]
    assert fresh.merge[0].max() == -1
