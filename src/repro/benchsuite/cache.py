"""Content-addressed on-disk cache for benchmark evaluation artifacts.

The paper's evaluation sweeps every benchmark across depths 2..10, four
optimization levels and five circuit-optimizer baselines.  Reproducing a
table re-compiles and re-expands the same circuits from scratch; this
module makes every grid point a one-time cost.

An :class:`ArtifactCache` maps a *task key* to two artifacts:

* ``point.json`` — the measurement row (counts, timings, metadata);
* ``circuit.rqcs`` — the pipeline's circuit as a binary circuit snapshot
  (:mod:`repro.circuit.snapshot`), so a longer pipeline — an optimizer
  baseline such as ``none+peephole`` — resumes from it instead of
  recompiling, even in a cold process.

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
benchmark runner stores the row and circuit at each replayable cut point
(after ``lower`` and after each gate pass), so a sweep whose pipeline
shares a prefix with an earlier sweep resumes from the stored snapshot
instead of recompiling the earlier stages.

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
:meth:`ArtifactCache.prune` / :meth:`ArtifactCache.clear` (and on
demand via :meth:`ArtifactCache.sweep_tmp`); only files older than
:data:`TMP_SWEEP_AGE` are swept, so a concurrent writer's in-progress
staging file is never yanked out from under it.

**Concurrency.**  One :class:`ArtifactCache` instance may serve many
threads (the compile service shares one across all clients): the
hit/miss/corrupt counters are updated under a lock.  Worker *processes*
each hold their own instance; :meth:`ArtifactCache.publish_stats`
persists a worker's counters under ``<root>/stats/`` and
:meth:`ArtifactCache.aggregated_stats` sums every publisher, so a
service endpoint can report fleet-wide hit rates instead of only the
parent's.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
import uuid
from dataclasses import asdict
from functools import lru_cache
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from .._version import __version__
from ..circuit.circuit import Circuit
from ..circuit import snapshot
from ..config import CompilerConfig
from ..faults import inject

POINT_FILE = "point.json"
CIRCUIT_FILE = "circuit.rqcs"
QUARANTINE_DIR = "quarantine"
STATS_DIR = "stats"
JOURNAL_DIR = "journal"

#: staging-file prefix of :meth:`ArtifactCache._atomic_write`
TMP_PREFIX = ".tmp-"

#: minimum age (seconds) before a stranded staging file is swept; a
#: healthy write holds its temp file for well under a second, so
#: anything this old belongs to a crashed writer
TMP_SWEEP_AGE = 60.0

#: root-level directories that are not two-char key fanouts
_META_DIRS = (QUARANTINE_DIR, STATS_DIR, JOURNAL_DIR)

#: the session counters shared by :meth:`ArtifactCache.stats`,
#: :meth:`ArtifactCache.publish_stats` and
#: :meth:`ArtifactCache.aggregated_stats`
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
        #: identity of this instance's published stats file (pid + nonce:
        #: pids are recycled, and one process may hold several instances)
        self._stats_token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"

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
        path = self._entry_dir(key) / POINT_FILE
        try:
            inject.fire("cache.load_point", key=key)
            data = path.read_bytes()
        except _MISS_ERRORS:
            self._count("misses")
            return None
        except OSError:
            self._count("io_errors")
            return None
        row = self._verify_point(data)
        if row is None:
            self._count("corrupt")
            self._quarantine(path, key)
            return None
        self._count("hits")
        self._touch(path)
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

    def store_point(self, key: str, row: Dict[str, Any]) -> None:
        """Persist a measurement row in a checksum envelope (atomic)."""
        envelope = {"format": POINT_FORMAT, "sha256": row_checksum(row), "row": row}
        data = (json.dumps(envelope, sort_keys=True) + "\n").encode("utf-8")
        data = inject.mangle("cache.store_point", key, data)
        self._atomic_write(
            self._entry_dir(key) / POINT_FILE, data,
            site="cache.store_point", key=key,
        )

    # -------------------------------------------------------------- circuits
    def load_circuit(self, key: str) -> Optional[Circuit]:
        """The stored compiled circuit, or ``None``.

        Same read classification as :meth:`load_point`: a blob failing
        its envelope checksum (or the snapshot decoder) is quarantined
        and counted corrupt, an unreadable file counts as an I/O error,
        and neither is ever conflated with a plain miss.
        """
        path = self._entry_dir(key) / CIRCUIT_FILE
        try:
            inject.fire("cache.load_circuit", key=key)
            data = path.read_bytes()
        except _MISS_ERRORS:
            return None
        except OSError:
            self._count("io_errors")
            return None
        circuit = self._verify_circuit(data)
        if circuit is None:
            self._count("corrupt")
            self._quarantine(path, key)
            return None
        self._touch(path)
        return circuit

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
        """Every entry directory (excluding the quarantine area)."""
        if not self.root.exists():
            return []
        return [
            entry
            for entry in self.root.glob("*/*")
            if entry.is_dir() and entry.parent.name not in _META_DIRS
        ]

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
        temp file survives; ``0.0`` sweeps unconditionally (used by
        :meth:`clear`).  Entry directories left empty by the sweep are
        removed.  Returns the number of files swept.
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
        for fanout in self.root.iterdir():
            if not fanout.is_dir() or fanout.name in _META_DIRS:
                continue
            try:
                fanout.rmdir()  # fails (correctly) unless empty
            except OSError:
                pass

    def clear(self) -> int:
        """Delete every entry (and the quarantine); returns entries removed.

        Unlike a plain point count, an entry holding only a circuit
        snapshot (or a partially written artifact) still counts — the
        return value is the number of entry directories deleted, and the
        two-char fanout directories are pruned rather than left empty.
        """
        removed = 0
        for entry in self._entries():
            self._remove_entry(entry)
            removed += 1
        for item in self.quarantine_entries():
            try:
                item.unlink()
            except OSError:
                pass
        try:
            (self.root / QUARANTINE_DIR).rmdir()
        except OSError:
            pass
        self._clear_stats_dir()
        self.sweep_tmp(max_age=0.0)
        self._prune_fanout_dirs()
        return removed

    def _clear_stats_dir(self) -> None:
        """Drop every published per-process stats file."""
        stats_dir = self.root / STATS_DIR
        if not stats_dir.is_dir():
            return
        for item in list(stats_dir.iterdir()):
            try:
                item.unlink()
            except OSError:
                pass
        try:
            stats_dir.rmdir()
        except OSError:
            pass

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
        return {
            "hits": self.hits,
            "misses": self.misses,
            "corrupt": self.corrupt,
            "io_errors": self.io_errors,
            "quarantined": self.quarantined,
            "entries": len(self),
        }

    # ---------------------------------------------- cross-process stats
    def publish_stats(self) -> None:
        """Persist this instance's counters under ``<root>/stats/``.

        Grid workers call this after each task, so the parent's
        :meth:`aggregated_stats` (the ``/cache/stats`` endpoint) sees
        fleet-wide hit rates instead of only its own counters.  Each
        (process, instance) pair owns one file — cumulative counts,
        atomically replaced — so republishing never double-counts.
        """
        with self._counter_lock:
            payload: Dict[str, Any] = {
                key: getattr(self, key) for key in _COUNTER_KEYS
            }
        payload["pid"] = os.getpid()
        data = json.dumps(payload, sort_keys=True).encode("utf-8")
        try:
            self._atomic_write(
                self.root / STATS_DIR / f"{self._stats_token}.json", data
            )
        except OSError:
            pass  # stats are advisory; never fail a task over them

    def aggregated_stats(self) -> Dict[str, int]:
        """Session counters summed across every publishing process.

        This instance's live (in-memory) counters plus every *other*
        published stats file under ``<root>/stats/`` — its own file is
        skipped so publishing locally never double-counts.
        """
        totals = {key: getattr(self, key) for key in _COUNTER_KEYS}
        own = f"{self._stats_token}.json"
        publishers = 0
        stats_dir = self.root / STATS_DIR
        if stats_dir.is_dir():
            for item in stats_dir.glob("*.json"):
                if item.name == own:
                    continue
                try:
                    payload = json.loads(item.read_text())
                except (OSError, json.JSONDecodeError, UnicodeDecodeError):
                    continue
                if not isinstance(payload, dict):
                    continue
                publishers += 1
                for key in _COUNTER_KEYS:
                    value = payload.get(key, 0)
                    if isinstance(value, int):
                        totals[key] += value
        totals["entries"] = len(self)
        totals["publishers"] = publishers
        return totals

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<ArtifactCache {self.root} ({self.hits} hits, "
            f"{self.misses} misses, {self.corrupt} corrupt)>"
        )
