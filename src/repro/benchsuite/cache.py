"""Content-addressed on-disk cache for benchmark evaluation artifacts.

The paper's evaluation sweeps every benchmark across depths 2..10, four
optimization levels and five circuit-optimizer baselines.  Reproducing a
table re-compiles and re-expands the same circuits from scratch; this
module makes every grid point a one-time cost.

An :class:`ArtifactCache` maps a *task key* to up to two artifacts:

* ``point.json`` — the measurement row (counts, timings, metadata);
* ``circuit.rqcs`` — the pipeline's circuit as a binary circuit snapshot
  (:mod:`repro.circuit.snapshot`), so a longer pipeline — an optimizer
  baseline such as ``none+peephole`` — resumes from it instead of
  recompiling, even in a cold process.

An entry of a third kind, ``program.json``, holds the source and entry of
an inline program under a key derived from its ``src:`` name
(:func:`program_key`), so that the name resolves in any process on the
cache.  It is not a point: it counts toward no hit, miss or ``len``.

The key is a SHA-256 over the complete provenance of the artifact:

* the SHA-256 of the benchmark's Tower **source text**,
* the entry function name,
* every :class:`~repro.config.CompilerConfig` field,
* the recursion depth,
* the **canonical pipeline spec** (:func:`repro.passes.canonical_pipeline`)
  — presets, ``preset+gatepass`` forms and raw specs all collapse onto one
  canonical string that embeds every per-pass parameter, so two pipelines
  sharing an optimizer name but differing in circopt parameters can never
  collide,
* the package version, the snapshot format version, and a
  :func:`code_fingerprint` of the installed ``repro`` package source —
  so editing the compiler or an optimizer during development invalidates
  every measurement it could have changed, not just on release bumps.

Because keys are per-pipeline-spec, every *prefix* of a pipeline has its
own entry, and every entry holds the one measurement-row shape: the
benchmark runner stores the row at each replayable cut point (after
``lower`` and after each gate pass), and the circuit wherever a later
measure can resume from it — the compile prefix and each intermediate
gate-pass output, not a pipeline's final gate-pass output, which no
measure reads.  A sweep whose pipeline shares a prefix with an earlier
sweep resumes from the stored snapshot instead of recompiling the
earlier stages, and a sweep interrupted midway, run again on the same
cache, replays every row it stored.

Changing any component — editing a benchmark program, widening a word,
patching an optimizer, upgrading the package — therefore misses cleanly
instead of serving a stale artifact.  Entries are immutable once written;
writes go through a temp file + :func:`os.replace` so concurrent grid
workers sharing one cache directory never observe a partial artifact.

**Integrity.**  Both artifacts carry a content checksum: ``point.json``
is a ``{"format", "sha256", "row"}`` envelope whose digest covers the
canonical row JSON, and ``circuit.rqcs`` prefixes the snapshot bytes
with an ``RQCE1`` header + SHA-256.  A read distinguishes three non-hit
outcomes, counted separately in :meth:`ArtifactCache.stats`:

* *miss* — the entry does not exist (normal cold point);
* *corrupt* — the entry exists but fails its checksum or cannot be
  parsed (torn write, bit rot, truncation); the offending file is moved
  to ``<root>/quarantine/`` for post-mortem and is never re-served;
* *I/O error* — the entry exists but cannot be read (``EACCES``, a
  transient filesystem fault); the point recomputes, but the error is
  never conflated with a plain miss.

:meth:`ArtifactCache.prune` adds size-bounded eviction (**least
recently used** entries first, by mtime) behind ``repro cache prune
--max-bytes``: cache *hits* refresh an entry's mtime, so a long-running
process — the ``repro serve`` compilation service in particular — keeps
its hot entries and evicts the cold ones, not the oldest-written ones.

**Crash hygiene.**  Writes stage through ``.tmp-*`` files before the
atomic :func:`os.replace`; a process killed between the two (the
``crash:cache.store_point`` chaos path) strands the temp file.  Stale
temp files are counted by :meth:`ArtifactCache.usage` and swept by
:meth:`ArtifactCache.prune` (and on demand via
:meth:`ArtifactCache.sweep_tmp`); only files older than
:data:`TMP_SWEEP_AGE` are swept, so a concurrent writer's in-progress
staging file is never yanked out from under it.
:meth:`ArtifactCache.clear` deletes them with everything else.  Nothing
is fsync'd: an entry torn by an OS crash fails its checksum on the next
read and is quarantined, so the worst case is one recompute.

**Concurrency.**  One :class:`ArtifactCache` instance may serve many
threads (the compile service shares one across all clients): the
hit/miss/corrupt counters are updated under a lock.  Worker *processes*
each hold their own instance, and each returns its counter increments
with every row (:meth:`ArtifactCache.take_counts`); the parent adds them
to its own (:meth:`ArtifactCache.add_counts`), so :meth:`ArtifactCache.stats`
counts the workers' loads too.  Nothing about the counters is written to
disk.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from .._version import __version__
from ..circuit.circuit import Circuit
from ..circuit import snapshot
from ..config import CompilerConfig
from ..faults import inject
from .programs import Benchmark, inline_benchmark

POINT_FILE = "point.json"
CIRCUIT_FILE = "circuit.rqcs"
PROGRAM_FILE = "program.json"
QUARANTINE_DIR = "quarantine"

#: staging-file prefix of :meth:`ArtifactCache._atomic_write`
TMP_PREFIX = ".tmp-"

#: minimum age (seconds) before a stranded staging file is swept; a
#: healthy write holds its temp file for well under a second, so
#: anything this old belongs to a crashed writer
TMP_SWEEP_AGE = 60.0

#: the session counters of :meth:`ArtifactCache.stats`
_COUNTER_KEYS = ("hits", "misses", "corrupt", "io_errors", "quarantined")

#: version of the point.json checksum envelope
POINT_FORMAT = 2

#: magic prefix of the checksummed circuit-snapshot envelope
CIRCUIT_MAGIC = b"RQCE1\x00"

#: OSError subclasses that mean "no such entry" rather than a real failure
_MISS_ERRORS = (FileNotFoundError, NotADirectoryError)


def row_checksum(row: Dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a measurement row."""
    blob = json.dumps(row, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def source_sha(source: str) -> str:
    """SHA-256 of a benchmark's Tower source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def program_key(name: str) -> str:
    """The entry key of the program record stored under ``name``."""
    return hashlib.sha256(f"program\n{name}".encode("utf-8")).hexdigest()


@lru_cache(maxsize=1)
def code_fingerprint() -> str:
    """SHA-256 over every ``.py`` file of the installed ``repro`` package.

    Part of every cache key: measurements depend on the compiler and
    optimizer *implementations*, not just on the benchmark source and the
    package version, and during development the version never moves.
    Computed once per process (~90 small files).
    """
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def task_key(
    *,
    source: str,
    entry: str,
    config: CompilerConfig,
    depth: Optional[int],
    pipeline: str,
    version: str = __version__,
    code: Optional[str] = None,
) -> str:
    """The content address of one grid point (hex SHA-256).

    ``pipeline`` is a canonical spec
    (:func:`repro.passes.canonical_pipeline`), which embeds every
    per-pass parameter in the fingerprint.
    """
    blob = json.dumps(
        {
            "source_sha": source_sha(source),
            "entry": entry,
            "config": asdict(config),
            "depth": depth,
            "pipeline": pipeline,
            "version": version,
            "code": code if code is not None else code_fingerprint(),
            "snapshot_format": snapshot.FORMAT_VERSION,
        },
        sort_keys=True,
    ).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class ArtifactCache:
    """On-disk artifact store, safe to share between processes.

    Layout: ``<root>/<key[:2]>/<key[2:]>/{point.json, circuit.rqcs}``.
    The two-level fanout keeps directory listings short on full-grid
    sweeps (hundreds of entries).
    """

    def __init__(
        self, root: Union[str, Path], version: str = __version__
    ) -> None:
        self.root = Path(root)
        self.version = version
        self.hits = 0
        self.misses = 0
        #: entries that failed their checksum and were quarantined
        self.corrupt = 0
        #: entries that exist but could not be read (never counted as miss)
        self.io_errors = 0
        #: files successfully moved to ``<root>/quarantine/``
        self.quarantined = 0
        #: guards the counters above — one instance may serve many threads
        self._counter_lock = threading.Lock()

    def _count(self, name: str, delta: int = 1) -> None:
        """Atomically bump a session counter (plain ``+=`` is a
        read-modify-write race once concurrent requests share one
        instance)."""
        with self._counter_lock:
            setattr(self, name, getattr(self, name) + delta)

    # ------------------------------------------------------------------ keys
    def key(self, **kwargs: Any) -> str:
        """:func:`task_key` bound to this cache's package version."""
        kwargs.setdefault("version", self.version)
        return task_key(**kwargs)

    def _entry_dir(self, key: str) -> Path:
        return self.root / key[:2] / key[2:]

    # ---------------------------------------------------------------- points
    def load_point(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored measurement row, or ``None``.

        The three non-hit outcomes — miss, corrupt (quarantined), and
        unreadable (I/O error) — are counted separately; only genuine
        misses increment ``misses``.
        """
        row = self._load(key, POINT_FILE, self._verify_point, "cache.load_point")
        if row is not None:
            self._count("hits")
        return row

    @staticmethod
    def _verify_point(data: bytes) -> Optional[Dict[str, Any]]:
        """The row inside a point envelope, or ``None`` when corrupt."""
        try:
            envelope = json.loads(data.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            return None
        if not isinstance(envelope, dict) or envelope.get("format") != POINT_FORMAT:
            return None
        row = envelope.get("row")
        if not isinstance(row, dict):
            return None
        if envelope.get("sha256") != row_checksum(row):
            return None
        return row

    @staticmethod
    def _envelope(row: Dict[str, Any]) -> bytes:
        """A row in its checksum envelope, as stored."""
        envelope = {"format": POINT_FORMAT, "sha256": row_checksum(row), "row": row}
        return (json.dumps(envelope, sort_keys=True) + "\n").encode("utf-8")

    def store_point(self, key: str, row: Dict[str, Any]) -> None:
        """Persist a measurement row in a checksum envelope (atomic)."""
        data = inject.mangle("cache.store_point", key, self._envelope(row))
        self._atomic_write(
            self._entry_dir(key) / POINT_FILE, data,
            site="cache.store_point", key=key,
        )

    # -------------------------------------------------------------- programs
    def load_program(self, name: str) -> Optional[Benchmark]:
        """The inline program stored under its ``src:`` name, or ``None``.

        A record that fails its checksum, or whose source and entry do
        not hash to ``name``, is quarantined and counted corrupt; an
        unreadable one counts as an I/O error.  A record is not a point:
        a load counts no hit and no miss.
        """

        def verify(data: bytes) -> Optional[Benchmark]:
            record = self._verify_point(data)
            if record is None or not {"source", "entry"} <= record.keys():
                return None
            program = inline_benchmark(record["source"], record["entry"])
            return program if program.name == name else None

        return self._load(program_key(name), PROGRAM_FILE, verify, count_miss=False)

    def store_program(self, program: Benchmark) -> None:
        """Persist an inline program under its ``src:`` name (atomic), in
        an entry of its own that :meth:`prune` evicts like any other."""
        record = {"source": program.source, "entry": program.entry}
        path = self._entry_dir(program_key(program.name)) / PROGRAM_FILE
        self._atomic_write(path, self._envelope(record))

    # -------------------------------------------------------------- circuits
    def load_circuit(self, key: str) -> Optional[Circuit]:
        """The stored compiled circuit, or ``None``.

        Same read classification as :meth:`load_point`: an absent circuit
        counts a miss, a blob failing its envelope checksum (or the
        snapshot decoder) is quarantined and counted corrupt, an
        unreadable file counts as an I/O error, and neither is ever
        conflated with a plain miss.  A found circuit counts no hit: the
        row read with it does.
        """
        return self._load(key, CIRCUIT_FILE, self._verify_circuit, "cache.load_circuit")

    def _load(
        self, key: str, filename: str, verify: Callable[[bytes], Any],
        site: str = "", count_miss: bool = True,
    ) -> Any:
        """The artifact ``filename`` of entry ``key`` as ``verify`` decodes
        it, or ``None``: an absent file counts a miss (if ``count_miss``),
        an unreadable one an I/O error, and one ``verify`` rejects is
        quarantined and counted corrupt.  A found artifact is touched."""
        path = self._entry_dir(key) / filename
        try:
            if site:
                inject.fire(site, key=key)
            data = path.read_bytes()
        except _MISS_ERRORS:
            if count_miss:
                self._count("misses")
            return None
        except OSError:
            self._count("io_errors")
            return None
        value = verify(data)
        if value is None:
            self._count("corrupt")
            self._quarantine(path, key)
            return None
        self._touch(path)
        return value

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh an artifact's mtime on a cache hit (best-effort).

        :meth:`prune` evicts by mtime; without the refresh, "LRU"
        eviction is actually FIFO — a long-running server would evict
        its hottest entries first because they were *written* first.
        """
        try:
            os.utime(path)
        except OSError:
            pass

    @staticmethod
    def _verify_circuit(data: bytes) -> Optional[Circuit]:
        """The circuit inside a checksummed envelope, or ``None``."""
        if not data.startswith(CIRCUIT_MAGIC):
            return None
        digest = data[len(CIRCUIT_MAGIC): len(CIRCUIT_MAGIC) + 32]
        payload = data[len(CIRCUIT_MAGIC) + 32:]
        if hashlib.sha256(payload).digest() != digest:
            return None
        try:
            return snapshot.load_bytes(payload)
        except snapshot.SnapshotError:
            return None

    def store_circuit(self, key: str, circuit: Circuit) -> None:
        """Persist a compiled circuit snapshot in a checksum envelope."""
        payload = snapshot.dump_bytes(circuit)
        data = CIRCUIT_MAGIC + hashlib.sha256(payload).digest() + payload
        data = inject.mangle("cache.store_circuit", key, data)
        self._atomic_write(
            self._entry_dir(key) / CIRCUIT_FILE, data,
            site="cache.store_circuit", key=key,
        )

    # ------------------------------------------------------------ quarantine
    def _quarantine(self, path: Path, key: str) -> None:
        """Move a corrupt artifact aside; it must never be re-served."""
        dest_dir = self.root / QUARANTINE_DIR
        try:
            dest_dir.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest_dir / f"{key}.{path.name}")
            self._count("quarantined")
        except OSError:
            # quarantine is best-effort; removing the entry is what
            # guarantees it is never served again
            try:
                path.unlink()
            except OSError:
                pass

    def quarantine_entries(self) -> List[Path]:
        """The quarantined artifact files (post-mortem material)."""
        dest = self.root / QUARANTINE_DIR
        if not dest.is_dir():
            return []
        return sorted(p for p in dest.iterdir() if p.is_file())

    # ------------------------------------------------------------- internals
    def _atomic_write(
        self, path: Path, data: bytes, site: str = "", key: str = ""
    ) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=TMP_PREFIX)
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            if site:
                # the chaos window between mkstemp and os.replace: a
                # ``crash`` fault here kills a worker with the staged
                # temp file on disk (the sweep-tmp path's raison d'être)
                inject.fire(site, key=key)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -------------------------------------------------------------- plumbing
    def _entries(self) -> List[Path]:
        """Every entry directory: ``<root>/<key[:2]>/<key[2:]>``."""
        if not self.root.exists():
            return []
        return [entry for entry in self.root.glob("??/*") if entry.is_dir()]

    @staticmethod
    def _is_tmp(path: Path) -> bool:
        """Whether a file is an in-flight (or stranded) staging file."""
        return path.name.startswith(TMP_PREFIX)

    def tmp_files(self) -> List[Path]:
        """Every ``.tmp-*`` staging file under the cache root.

        A healthy write holds one for under a millisecond; anything that
        accumulates here belongs to writers that crashed between
        ``mkstemp`` and ``os.replace``.
        """
        if not self.root.exists():
            return []
        return sorted(
            p for p in self.root.rglob(f"{TMP_PREFIX}*") if p.is_file()
        )

    def sweep_tmp(self, max_age: Optional[float] = None) -> int:
        """Remove staging files older than ``max_age`` seconds.

        Defaults to :data:`TMP_SWEEP_AGE` so a concurrent writer's live
        temp file survives; ``0.0`` sweeps unconditionally.  Entry
        directories left empty by the sweep are removed.  Returns the
        number of files swept.
        """
        age = TMP_SWEEP_AGE if max_age is None else max_age
        cutoff = time.time() - age
        swept = 0
        for tmp in self.tmp_files():
            try:
                if tmp.stat().st_mtime > cutoff:
                    continue
                tmp.unlink()
                swept += 1
            except OSError:
                continue
            parent = tmp.parent
            if parent.parent.parent == self.root:  # an entry directory
                try:
                    parent.rmdir()  # fails (correctly) unless empty
                except OSError:
                    pass
        if swept:
            self._prune_fanout_dirs()
        return swept

    def __len__(self) -> int:
        """Number of stored grid points."""
        if not self.root.exists():
            return 0
        return sum(1 for _ in self.root.glob(f"*/*/{POINT_FILE}"))

    @staticmethod
    def _remove_entry(entry: Path) -> int:
        """Delete one entry directory; returns the bytes freed."""
        freed = 0
        for item in list(entry.iterdir()):
            try:
                freed += item.stat().st_size
                item.unlink()
            except OSError:
                pass
        try:
            entry.rmdir()
        except OSError:
            pass
        return freed

    def _prune_fanout_dirs(self) -> None:
        """Drop two-char fanout directories left empty by entry removal."""
        if not self.root.exists():
            return
        for fanout in self.root.glob("??"):
            if not fanout.is_dir():
                continue
            try:
                fanout.rmdir()  # fails (correctly) unless empty
            except OSError:
                pass

    def clear(self) -> int:
        """Delete every directory under the root: the entries with their
        fanout directories and staging files, the quarantine, and any
        other directory, such as the ``journal/`` and ``stats/``
        directories older versions wrote.  Returns the entries removed.

        Unlike a plain point count, an entry holding only a circuit
        snapshot (or a partially written artifact) still counts — the
        return value is the number of entry directories deleted.
        """
        removed = len(self._entries())
        if self.root.is_dir():
            for item in self.root.iterdir():
                if item.is_dir():
                    shutil.rmtree(item, ignore_errors=True)
        return removed

    # -------------------------------------------------------------- eviction
    def usage(self) -> Dict[str, int]:
        """On-disk footprint: entries, quarantine, and stranded temp files.

        Staging files are counted apart from artifact bytes — they are
        dead weight from crashed writers (swept by :meth:`prune` /
        :meth:`clear`), not servable entries.
        """
        entries = 0
        size = 0
        for entry in self._entries():
            entries += 1
            for item in entry.iterdir():
                if self._is_tmp(item):
                    continue
                try:
                    size += item.stat().st_size
                except OSError:
                    pass
        quarantine = self.quarantine_entries()
        q_bytes = 0
        for item in quarantine:
            try:
                q_bytes += item.stat().st_size
            except OSError:
                pass
        tmp = self.tmp_files()
        t_bytes = 0
        for item in tmp:
            try:
                t_bytes += item.stat().st_size
            except OSError:
                pass
        return {
            "entries": entries,
            "bytes": size,
            "quarantine_entries": len(quarantine),
            "quarantine_bytes": q_bytes,
            "tmp_files": len(tmp),
            "tmp_bytes": t_bytes,
        }

    def prune(self, max_bytes: int) -> Dict[str, int]:
        """Evict least-recently-*used* entries until the cache fits
        ``max_bytes``.

        Eviction order is by mtime, which cache hits refresh (see
        :meth:`_touch`) — so the entries evicted first are the ones
        nobody has read in the longest time, not merely the ones written
        first.  Whole entries are evicted (a point and its circuit
        snapshot live or die together).  Stale staging files from
        crashed writers are swept first and never count toward an
        entry's size or recency.  Returns removed/remaining entry and
        byte counts plus the staging-file sweep count.
        """
        swept = self.sweep_tmp()
        sized: List[Tuple[float, int, Path]] = []
        for entry in self._entries():
            size = 0
            mtime = 0.0
            for item in entry.iterdir():
                if self._is_tmp(item):
                    continue
                try:
                    stat = item.stat()
                except OSError:
                    continue
                size += stat.st_size
                mtime = max(mtime, stat.st_mtime)
            sized.append((mtime, size, entry))
        total = sum(size for _, size, _ in sized)
        removed_entries = 0
        removed_bytes = 0
        for _, size, entry in sorted(sized, key=lambda item: item[0]):
            if total - removed_bytes <= max_bytes:
                break
            removed_bytes += self._remove_entry(entry)
            removed_entries += 1
        self._prune_fanout_dirs()
        return {
            "removed_entries": removed_entries,
            "removed_bytes": removed_bytes,
            "remaining_entries": len(sized) - removed_entries,
            "remaining_bytes": total - removed_bytes,
            "swept_tmp_files": swept,
        }

    def stats(self) -> Dict[str, int]:
        """Session counters plus the stored entry count.

        ``corrupt`` (checksum failures, quarantined), ``io_errors``
        (unreadable entries) and ``quarantined`` are classified apart
        from plain ``misses`` — a sweep that recompiled because of disk
        trouble is visible as such, never silently folded into cold
        points.
        """
        with self._counter_lock:
            counts = {key: getattr(self, key) for key in _COUNTER_KEYS}
        counts["entries"] = len(self)
        return counts

    def take_counts(self) -> Dict[str, int]:
        """The session counters, reset to zero: the increments since the
        previous call.  A grid worker returns them with each row."""
        with self._counter_lock:
            counts = {key: getattr(self, key) for key in _COUNTER_KEYS}
            for key in _COUNTER_KEYS:
                setattr(self, key, 0)
        return counts

    def add_counts(self, counts: Dict[str, int]) -> None:
        """Add counter increments taken from another instance (a grid
        worker's, see :meth:`take_counts`)."""
        with self._counter_lock:
            for key, delta in counts.items():
                setattr(self, key, getattr(self, key) + delta)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ArtifactCache {self.root} ({self.hits} hits, "
            f"{self.misses} misses, {self.corrupt} corrupt)>"
        )
