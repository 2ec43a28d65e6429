"""Cache integrity: checksums, corruption quarantine, eviction, I/O errors.

Property-based torn-write tests: *any* truncation, byte flip, or random
tail replacement of a stored artifact must be detected as corrupt (never
served as data, never crash the reader), quarantined, and recompute
cleanly — while the untouched artifact round-trips bit-exact.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchsuite import ArtifactCache
from repro.benchsuite.cache import (
    CIRCUIT_FILE,
    CIRCUIT_MAGIC,
    POINT_FILE,
    PROGRAM_FILE,
    program_key,
)
from repro.benchsuite.programs import inline_benchmark
from repro.circuit.circuit import Circuit
from repro.circuit.gates import Gate, GateKind

KEY = "ab" + "0" * 62
ROW = {"name": "length", "depth": 3, "optimization": "none", "t": 123}
PROGRAM = inline_benchmark("fun main(x: uint) -> uint {\n  return x;\n}\n", "main")


def small_circuit() -> Circuit:
    return Circuit(
        3,
        [
            Gate(GateKind.MCX, (), (0,)),
            Gate(GateKind.MCX, (0,), (1,)),
            Gate(GateKind.MCX, (0, 1), (2,)),
        ],
    )


def entry_file(cache: ArtifactCache, name: str):
    return cache.root / KEY[:2] / KEY[2:] / name


def program_file(cache: ArtifactCache, name: str):
    key = program_key(name)
    return cache.root / key[:2] / key[2:] / PROGRAM_FILE


# ------------------------------------------------------------- clean paths
def test_point_roundtrip_and_envelope(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY, ROW)
    envelope = json.loads(entry_file(cache, POINT_FILE).read_text())
    assert envelope["format"] == 2
    assert envelope["row"] == ROW
    assert len(envelope["sha256"]) == 64
    assert cache.load_point(KEY) == ROW
    assert cache.stats()["corrupt"] == 0


def test_circuit_roundtrip_and_envelope(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_circuit(KEY, small_circuit())
    blob = entry_file(cache, CIRCUIT_FILE).read_bytes()
    assert blob.startswith(CIRCUIT_MAGIC)
    loaded = cache.load_circuit(KEY)
    assert loaded is not None
    assert loaded.gates == small_circuit().gates


# --------------------------------------------------------------- corruption
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_point_corruption_is_quarantined(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("cache")
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY, ROW)
    path = entry_file(cache, POINT_FILE)
    blob = bytearray(path.read_bytes())
    mode = data.draw(st.sampled_from(["truncate", "flip", "garbage-tail"]))
    if mode == "truncate":
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        blob = blob[:cut]
    elif mode == "flip":
        pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        blob[pos] ^= flip
    else:
        tail = data.draw(st.binary(min_size=1, max_size=64))
        keep = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        blob = blob[:keep] + tail
    path.write_bytes(bytes(blob))
    loaded = cache.load_point(KEY)
    if loaded is not None:
        # a flip inside the row that the checksum covers must be caught;
        # surviving reads may only come from mutations outside the row
        # payload semantics (e.g. JSON whitespace) — the row itself must
        # still be the one we stored
        assert loaded == ROW
    else:
        assert cache.misses + cache.corrupt >= 1
        # quarantined entries are never re-served
        assert cache.load_point(KEY) is None


@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_snapshot_corruption_is_detected(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("cache")
    cache = ArtifactCache(tmp_path)
    cache.store_circuit(KEY, small_circuit())
    path = entry_file(cache, CIRCUIT_FILE)
    blob = bytearray(path.read_bytes())
    mode = data.draw(st.sampled_from(["truncate", "flip"]))
    if mode == "truncate":
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        mutated = bytes(blob[:cut])
    else:
        pos = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        flip = data.draw(st.integers(min_value=1, max_value=255))
        blob[pos] ^= flip
        mutated = bytes(blob)
    path.write_bytes(mutated)
    assert cache.load_circuit(KEY) is None  # sha256 catches every mutation
    assert cache.corrupt == 1
    assert cache.quarantine_entries()


def test_corrupt_point_is_quarantined_for_postmortem(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY, ROW)
    entry_file(cache, POINT_FILE).write_bytes(b"\xff\xfe not json")
    assert cache.load_point(KEY) is None
    stats = cache.stats()
    assert stats["corrupt"] == 1 and stats["quarantined"] == 1
    (quarantined,) = cache.quarantine_entries()
    assert quarantined.name == f"{KEY}.{POINT_FILE}"
    # second read: the entry is gone, so it is a plain miss now
    assert cache.load_point(KEY) is None
    assert cache.stats()["misses"] == 1


def test_tampered_row_fails_checksum(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY, ROW)
    path = entry_file(cache, POINT_FILE)
    envelope = json.loads(path.read_text())
    envelope["row"]["t"] = 999  # silent bit-rot in the payload
    path.write_text(json.dumps(envelope))
    assert cache.load_point(KEY) is None
    assert cache.stats()["corrupt"] == 1


# --------------------------------------------------------------- I/O errors
def test_unreadable_entry_is_io_error_not_miss(tmp_path, monkeypatch):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY, ROW)

    def denied(self):
        raise PermissionError("injected EACCES")

    monkeypatch.setattr(type(entry_file(cache, POINT_FILE)), "read_bytes", denied)
    assert cache.load_point(KEY) is None
    stats = cache.stats()
    assert stats["io_errors"] == 1
    assert stats["misses"] == 0  # never conflated
    assert stats["corrupt"] == 0


def test_missing_entry_is_a_plain_miss(tmp_path):
    cache = ArtifactCache(tmp_path)
    assert cache.load_point(KEY) is None
    assert cache.load_circuit(KEY) is None
    stats = cache.stats()
    assert stats["misses"] == 2  # one per probe
    assert stats["io_errors"] == 0 and stats["corrupt"] == 0


# ------------------------------------------------------------ clear / prune
def test_clear_prunes_fanout_dirs_and_counts_all_entries(tmp_path):
    cache = ArtifactCache(tmp_path)
    keys = [f"{i:02x}" + "0" * 62 for i in range(4)]
    for key in keys[:3]:
        cache.store_point(key, ROW)
    cache.store_circuit(keys[3], small_circuit())  # circuit-only entry
    assert cache.clear() == 4  # circuit-only entries count too
    leftovers = [p for p in cache.root.iterdir()]
    assert leftovers == []  # no empty two-char fanout dirs left behind


def test_clear_removes_quarantine(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY, ROW)
    entry_file(cache, POINT_FILE).write_bytes(b"junk{")
    cache.load_point(KEY)
    assert cache.quarantine_entries()
    cache.clear()
    assert cache.quarantine_entries() == []
    assert list(cache.root.iterdir()) == []


@pytest.mark.parametrize("directory", ["stats", "journal"])
def test_clear_removes_a_legacy_directory(tmp_path, directory):
    """Caches written by older versions hold per-worker counter files under
    ``stats/`` or sweep checkpoints under ``journal/``; clearing the cache
    deletes every directory that is not an entry, with the entries."""
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY, ROW)
    (tmp_path / directory).mkdir()
    (tmp_path / directory / "legacy.json").write_text("{}")
    assert cache.clear() == 1
    assert list(cache.root.iterdir()) == []


def test_usage_and_prune_evict_oldest_first(tmp_path):
    cache = ArtifactCache(tmp_path)
    keys = [f"{i:02x}" + "0" * 62 for i in range(5)]
    for i, key in enumerate(keys):
        cache.store_point(key, dict(ROW, t=i))
        entry = cache.root / key[:2] / key[2:]
        stamp = 1_000_000 + i
        os.utime(entry / POINT_FILE, (stamp, stamp))
    usage = cache.usage()
    assert usage["entries"] == 5 and usage["bytes"] > 0
    per_entry = usage["bytes"] // 5
    report = cache.prune(max_bytes=per_entry * 2)
    assert report["removed_entries"] == 3
    assert report["remaining_entries"] == 2
    # the two newest survive
    assert cache.load_point(keys[3]) == dict(ROW, t=3)
    assert cache.load_point(keys[4]) == dict(ROW, t=4)
    assert cache.load_point(keys[0]) is None
    assert cache.usage()["bytes"] <= per_entry * 2


def test_prune_noop_when_under_budget(tmp_path):
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY, ROW)
    report = cache.prune(max_bytes=10**9)
    assert report["removed_entries"] == 0
    assert cache.load_point(KEY) == ROW


# ---------------------------------------------------------- program records
def test_program_record_roundtrips_and_is_not_a_point(tmp_path):
    cache = ArtifactCache(tmp_path)
    assert cache.load_program(PROGRAM.name) is None
    cache.store_program(PROGRAM)
    envelope = json.loads(program_file(cache, PROGRAM.name).read_text())
    assert envelope["row"] == {"source": PROGRAM.source, "entry": "main"}
    assert cache.load_program(PROGRAM.name) == PROGRAM
    stats = cache.stats()
    assert stats["hits"] == stats["misses"] == stats["corrupt"] == 0
    assert len(cache) == 0 and stats["entries"] == 0
    assert cache.usage()["entries"] == 1  # an entry directory of its own


@pytest.mark.parametrize("tamper", ["truncated", "another program"])
def test_corrupt_program_record_is_quarantined(tmp_path, tamper):
    """A record that fails its checksum, or whose source and entry do not
    hash to its name, is quarantined and counted corrupt, never served."""
    cache = ArtifactCache(tmp_path)
    cache.store_program(PROGRAM)
    path = program_file(cache, PROGRAM.name)
    if tamper == "truncated":
        path.write_bytes(path.read_bytes()[:-9])
    else:
        other = inline_benchmark(PROGRAM.source + "// another program\n", "main")
        cache.store_program(other)
        os.replace(program_file(cache, other.name), path)
    assert cache.load_program(PROGRAM.name) is None
    stats = cache.stats()
    assert stats["corrupt"] == 1 and stats["quarantined"] == 1
    assert stats["hits"] == stats["misses"] == 0
    assert cache.load_program(PROGRAM.name) is None  # gone, not corrupt again
    assert cache.stats()["corrupt"] == 1


def test_prune_evicts_a_program_record_like_any_entry(tmp_path):
    """A load refreshes a record's recency, and a prune evicts it by it."""
    cache = ArtifactCache(tmp_path)
    cache.store_point(KEY, ROW)
    cache.store_program(PROGRAM)
    for path in (entry_file(cache, POINT_FILE), program_file(cache, PROGRAM.name)):
        os.utime(path, (1_000_000, 1_000_000))
    assert cache.load_program(PROGRAM.name) == PROGRAM
    budget = program_file(cache, PROGRAM.name).stat().st_size
    assert cache.prune(max_bytes=budget)["removed_entries"] == 1
    assert cache.load_point(KEY) is None
    assert cache.load_program(PROGRAM.name) == PROGRAM
    assert cache.prune(max_bytes=0)["removed_entries"] == 1
    assert cache.load_program(PROGRAM.name) is None
