"""Binary circuit snapshots: lossless round-trip and cache invalidation.

The artifact cache persists compiled circuits through
:mod:`repro.circuit.snapshot`; optimizer baselines replayed from disk must
see *exactly* the circuit the compiler produced — gate order, control
order, registers — because the Figure 5 MCX expansion is sensitive to
control order and the evaluation requires bit-identical T-counts.
"""

from __future__ import annotations

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite import BenchmarkRunner
from repro.benchsuite.cache import ArtifactCache, task_key
from repro.circuit import Circuit, Gate, GateKind, Register
from repro.circuit.snapshot import SnapshotError, dump, dump_bytes, load, load_bytes
from repro.config import CompilerConfig

CFG = CompilerConfig(word_width=2, addr_width=2, heap_cells=3)


# --------------------------------------------------------------- strategies
@st.composite
def clifford_t_gates(draw, num_qubits: int):
    kind = draw(
        st.sampled_from(
            [GateKind.H, GateKind.T, GateKind.TDG, GateKind.S, GateKind.SDG,
             GateKind.Z, GateKind.MCX]
        )
    )
    target = draw(st.integers(0, num_qubits - 1))
    if kind is GateKind.MCX and draw(st.booleans()):
        control = draw(
            st.integers(0, num_qubits - 1).filter(lambda q: q != target)
        )
        return Gate(kind, (control,), (target,))
    return Gate(kind, (), (target,))


@st.composite
def mcx_gates(draw, num_qubits: int):
    """MCX gates with up to 4 controls in *arbitrary* (unsorted) order."""
    qubits = draw(
        st.lists(
            st.integers(0, num_qubits - 1),
            min_size=1,
            max_size=5,
            unique=True,
        )
    )
    permuted = draw(st.permutations(qubits))
    if draw(st.booleans()):
        return Gate(GateKind.MCX, tuple(permuted[:-1]), (permuted[-1],))
    if len(permuted) >= 3 and draw(st.booleans()):
        return Gate(GateKind.SWAP, tuple(permuted[:-2]), tuple(permuted[-2:]))
    return Gate(GateKind.H, tuple(permuted[:-1]), (permuted[-1],))


def _roundtrip(circuit: Circuit) -> None:
    restored = load_bytes(dump_bytes(circuit))
    assert restored.num_qubits == circuit.num_qubits
    assert len(restored.gates) == len(circuit.gates)
    for got, expected in zip(restored.gates, circuit.gates):
        # gate-for-gate: kind, control order, target order all preserved
        assert got == expected
    assert restored.registers == circuit.registers
    assert restored == circuit
    # per-row counts weighted by the row column match a per-gate oracle
    gates = circuit.gates
    assert restored.t_complexity() == sum(g.t_cost() for g in gates)
    assert restored.t_count() == sum(
        1 for g in gates if g.kind in (GateKind.T, GateKind.TDG)
    )
    assert restored.gate_histogram() == Counter(
        (g.kind, len(g.controls)) for g in gates
    )
    assert restored.max_controls() == max(
        (len(g.controls) for g in gates), default=0
    )
    assert restored.is_clifford_t() == all(g.is_clifford_t() for g in gates)


class TestRoundTrip:
    @given(st.lists(clifford_t_gates(num_qubits=9), max_size=60))
    @settings(max_examples=60, deadline=None)
    def test_random_clifford_t(self, gates):
        _roundtrip(Circuit(9, gates))

    @given(st.lists(mcx_gates(num_qubits=70), max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_random_mcx_unsorted_controls(self, gates):
        # 70 wires: masks exceed 64 bits, exercising the bigint path
        _roundtrip(Circuit(70, gates))

    @given(
        st.lists(st.tuples(mcx_gates(num_qubits=80), st.integers(0, 2)), max_size=30),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_equal_but_distinct_objects(self, drawn, rng):
        # 80 wires, and each drawn gate applied again as the same object
        # and as equal copies: the table keeps one row per object
        gates = []
        for gate, copies in drawn:
            gates += [gate, gate]
            gates += [Gate(gate.kind, gate.controls, gate.targets) for _ in range(copies)]
        rng.shuffle(gates)
        circuit = Circuit(80, gates)
        assert len(circuit.table) == len({id(g) for g in gates})
        _roundtrip(circuit)

    def test_controlled_t_has_no_t_complexity(self):
        circuit = Circuit(2, [Gate(GateKind.T, (0,), (1,))])
        for candidate in (circuit, load_bytes(dump_bytes(circuit))):
            with pytest.raises(ValueError):
                candidate.t_complexity()

    def test_empty_circuit(self):
        _roundtrip(Circuit(0, []))

    def test_registers_preserved(self):
        circuit = Circuit(6, [Gate(GateKind.MCX, (2, 0), (4,))])
        circuit.add_register(Register("acc", 0, 3))
        circuit.add_register(Register("mem[1]", 3, 3))
        _roundtrip(circuit)

    def test_compiled_benchmark_roundtrip(self):
        runner = BenchmarkRunner(CFG)
        for optimization in ("none", "spire"):
            compiled = runner.compile("length", 3, optimization)
            _roundtrip(compiled.circuit)
            restored = load_bytes(dump_bytes(compiled.circuit))
            assert restored.t_complexity() == compiled.t_complexity()

    def test_file_roundtrip(self, tmp_path):
        circuit = Circuit(3, [Gate(GateKind.MCX, (0, 2), (1,))])
        path = dump(circuit, tmp_path / "c.rqcs")
        assert load(path) == circuit

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError):
            load_bytes(b"not a snapshot at all")

    def test_truncated_rejected(self):
        blob = dump_bytes(Circuit(3, [Gate(GateKind.MCX, (0,), (1,))]))
        with pytest.raises(SnapshotError):
            load_bytes(blob[:-2])

    def test_every_corruption_shape_is_snapshot_error(self):
        import json as json_mod
        import struct as struct_mod
        import zlib

        blob = dump_bytes(Circuit(3, [Gate(GateKind.MCX, (0,), (1,))]))
        magic_len = 6
        (header_len,) = struct_mod.unpack_from("<I", blob, magic_len)

        # Toffoli[0,1](2), CNOT[3](4): two table rows whose columns are
        # kinds u8[2], num_controls i32[2], num_targets u8[2],
        # qubits i32[5], rows i32[2]
        pair = dump_bytes(
            Circuit(5, [Gate(GateKind.MCX, (0, 1), (2,)), Gate(GateKind.MCX, (3,), (4,))])
        )
        (pair_header_len,) = struct_mod.unpack_from("<I", pair, magic_len)
        header = json_mod.loads(pair[magic_len + 4: magic_len + 4 + pair_header_len])
        at = magic_len + 4 + pair_header_len

        def columns(num_controls=(2, 1), num_targets=(1, 1), qubits=(0, 1, 2, 3, 4),
                    rows=(0, 1)):
            return (pair[at: at + 2] + struct_mod.pack("<2i", *num_controls)
                    + bytes(num_targets) + struct_mod.pack("<5i", *qubits)
                    + struct_mod.pack("<2i", *rows))

        def sealed(body, **changes):
            # a checksum that matches: only the structural checks can object
            head = json_mod.dumps(dict(header, **changes), sort_keys=True).encode()
            data = pair[:magic_len] + struct_mod.pack("<I", len(head)) + head + body
            return data + struct_mod.pack("<I", zlib.crc32(data))

        assert sealed(columns()) == pair
        corrupt = [
            blob[: magic_len + 2],  # truncated inside the header length
            # valid JSON header missing required keys
            blob[:magic_len] + struct_mod.pack("<I", 2) + b"{}"
            + blob[magic_len + 4 + header_len:],
            # invalid kind code in the kinds array
            blob[: magic_len + 4 + header_len] + b"\xc8"
            + blob[magic_len + 4 + header_len + 1:],
            # one control moved from row 0 to row 1: same length, and
            # CNOT[0](1), Toffoli[2,3](4) would be a valid circuit
            pair[:at] + columns(num_controls=(1, 2)) + pair[-4:],
            # a negative count, with and without a matching checksum
            pair[:at] + columns(num_controls=(-1, 4)) + pair[-4:],
            sealed(columns(num_controls=(-1, 4))),
            # a target count other than 1 or 2
            sealed(columns(num_controls=(3, 1), num_targets=(0, 1))),
            # counts that do not consume exactly the qubit words
            sealed(columns(num_controls=(2, 2))),
            # a row index outside the table
            sealed(columns(rows=(0, 2))),
            sealed(columns(rows=(-1, 1))),
            # a qubit at or above the header's num_qubits
            sealed(columns(qubits=(0, 1, 2, 3, 5))),
            sealed(columns(), num_qubits=4),
        ]
        for bad in corrupt:
            with pytest.raises(SnapshotError):
                load_bytes(bad)


class TestCacheInvalidation:
    """Changed source/config/version/optimizer → a different key (a miss)."""

    BASE = dict(
        source="fun f[n]() -> uint { let out <- 0; return out; }",
        entry="f",
        config=CFG,
        depth=3,
        optimization="none",
    )

    def test_key_is_deterministic(self):
        assert task_key(**self.BASE) == task_key(**self.BASE)

    def test_source_change_misses(self):
        changed = dict(self.BASE, source=self.BASE["source"] + " ")
        assert task_key(**self.BASE) != task_key(**changed)

    def test_config_change_misses(self):
        changed = dict(self.BASE, config=CompilerConfig(3, 2, 3))
        assert task_key(**self.BASE) != task_key(**changed)

    def test_version_change_misses(self):
        assert task_key(**self.BASE) != task_key(**self.BASE, version="0.0.0-test")

    def test_code_fingerprint_change_misses(self):
        # editing the compiler/optimizer source must invalidate, not just
        # a version bump (the version never moves during development)
        assert task_key(**self.BASE) != task_key(**self.BASE, code="0" * 64)

    def test_code_fingerprint_is_deterministic(self):
        from repro.benchsuite.cache import code_fingerprint

        first = code_fingerprint()
        assert first == code_fingerprint()
        assert len(first) == 64

    def test_depth_optimization_optimizer_params_all_keyed(self):
        keys = {
            task_key(**self.BASE),
            task_key(**dict(self.BASE, depth=4)),
            task_key(**dict(self.BASE, optimization="spire")),
            task_key(**self.BASE, optimizer="peephole"),
            task_key(**self.BASE, optimizer="greedy-search"),
            task_key(
                **self.BASE, optimizer="greedy-search",
                params={"preprocess_only": True},
            ),
        }
        assert len(keys) == 6

    def test_store_and_replay(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key(**self.BASE)
        assert cache.load_point(key) is None
        cache.store_point(key, {"t": 42, "cached": False})
        assert cache.load_point(key)["t"] == 42
        assert len(cache) == 1
        circuit = Circuit(3, [Gate(GateKind.MCX, (0, 2), (1,))])
        cache.store_circuit(key, circuit)
        assert cache.load_circuit(key) == circuit
        assert cache.clear() == 1
        assert cache.load_point(key) is None

    def test_version_bump_invalidates_store(self, tmp_path):
        old = ArtifactCache(tmp_path, version="1.0.0-test")
        new = ArtifactCache(tmp_path, version="2.0.0-test")
        old.store_point(old.key(**self.BASE), {"t": 1})
        assert new.load_point(new.key(**self.BASE)) is None

    def test_corrupt_circuit_blob_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        key = cache.key(**self.BASE)
        circuit = Circuit(3, [Gate(GateKind.MCX, (0,), (1,))])
        cache.store_circuit(key, circuit)
        path = cache._entry_dir(key) / "circuit.rqcs"
        path.write_bytes(path.read_bytes()[:-3])
        assert cache.load_circuit(key) is None
