"""Per-layer self-time spans, recorded from outside the program.

The benchmark never edits the package under test.  In a traced run it
wraps the entry point of each layer (a function or a method, named in
:data:`LAYERS`) with a timing shim, runs the workload unchanged, and
attributes every span's *self* time -- its duration minus that of the
spans it caused -- to its layer.  Self times of all layers plus the
unattributed rest add up to the request wall clock.

Spans nest per thread, so the server's event-loop thread and its batch
executor thread keep separate stacks.  Forked pool workers inherit the
shims; :func:`install` with ``flush_dir`` makes every process that runs
a grid task write its totals to ``flush_dir`` (one JSON file per
process), and :func:`load_totals` sums them.

A layer whose entry point no longer exists is skipped (its time then
reads 0 and it is named on stderr), so a refactor degrades the trace
instead of breaking the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time
import uuid
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (layer, "module:qualname") -- one entry point per row; a layer may
#: have several.  ``PassManager._run_group`` is split by pass stage.
LAYERS: List[Tuple[str, str]] = [
    ("parse", "repro.lang.parser:parse_program"),
    ("desugar", "repro.lang.desugar:lower_entry"),
    ("typecheck", "repro.ir.typecheck:check_program"),
    ("pass", "repro.passes.manager:PassManager._run_group"),
    ("decompose", "repro.circuit.decompose:to_toffoli"),
    ("decompose", "repro.circuit.decompose:expand_toffolis"),
    ("cost_model", "repro.cost.model:PaperCostModel.report"),
    ("tcount", "repro.circuit.circuit:Circuit.t_complexity"),
    ("tcount", "repro.circuit.circuit:Circuit.mcx_complexity"),
    ("tcount", "repro.circuit.circuit:Circuit.t_count"),
    ("snapshot", "repro.circuit.snapshot:dump_bytes"),
    ("snapshot", "repro.circuit.snapshot:load_bytes"),
    ("cache_io", "repro.benchsuite.cache:task_key"),
    ("cache_io", "repro.benchsuite.cache:ArtifactCache.load_point"),
    ("cache_io", "repro.benchsuite.cache:ArtifactCache.store_point"),
    ("cache_io", "repro.benchsuite.cache:ArtifactCache.load_circuit"),
    ("cache_io", "repro.benchsuite.cache:ArtifactCache.store_circuit"),
    ("lint", "repro.serve.service:CompileService.lint"),
    ("http", "repro.serve.handlers:decode_body"),
    ("http", "repro.serve.http:render_response"),
    ("journal", "repro.benchsuite.resilience:SweepJournal.append"),
]

#: the layer names, in report order
LAYER_NAMES: List[str] = [
    "parse", "desugar", "typecheck", "ir_passes", "alloc", "lower",
    "gate_passes", "decompose", "cost_model", "tcount", "snapshot",
    "cache_io", "lint", "http", "journal",
]

#: the pool-worker task entry point; after each task the worker flushes
WORKER_TASK = "repro.benchsuite.parallel:_run_worker_task"


def _pass_layer(args: Tuple[Any, ...]) -> str:
    """Layer of one ``PassManager._run_group(self, ctx, group, ...)`` call."""
    from repro.passes.base import get_pass_class

    name = args[2][0][1].name
    stage = get_pass_class(name).stage
    if stage == "ir":
        return "ir_passes"
    if stage == "gates":
        return "gate_passes"
    if name in ("alloc", "lower"):
        return name
    return "ir_passes"  # analyze-stage passes read the core IR


class Recorder:
    """Thread-safe per-layer totals of span self time and call counts."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self.reset()

    def reset(self) -> None:
        with self._lock:
            self.seconds: Dict[str, float] = defaultdict(float)
            self.counts: Dict[str, int] = defaultdict(int)

    def add(self, name: str, amount: int) -> None:
        with self._lock:
            self.counts[name] += amount

    def totals(self) -> Dict[str, Any]:
        with self._lock:
            return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    def wrap(
        self,
        layer: str | Callable[[Tuple[Any, ...]], str],
        fn: Callable[..., Any],
        observe: Optional[Callable[[Any], None]] = None,
    ) -> Callable[..., Any]:
        recorder = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = recorder._local.__dict__.setdefault("stack", [])
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                name = layer if isinstance(layer, str) else layer(args)
                with recorder._lock:
                    recorder.seconds[name] += elapsed - children[0]
                    recorder.counts[f"{name}_calls"] += 1
            if observe is not None:
                observe(result)
            return result

        return traced


RECORDER = Recorder()


def _resolve(target: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, original) of a ``module:qualname`` target."""
    module_name, _, qualname = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    attr = parts[-1]
    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return owner, attr, original


def _rebind(owner: Any, attr: str, original: Any, replacement: Any) -> List[Tuple[Any, str, Any]]:
    """Point every binding of ``original`` at ``replacement``; returns undo list."""
    undo = [(owner, attr, original)]
    setattr(owner, attr, replacement)
    if isinstance(owner, type):
        return undo  # methods are looked up on the class at call time
    # ``from module import fn`` copies the binding into the importer
    for name, module in list(sys.modules.items()):
        if module is None or module is owner or not name.startswith("repro"):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
                undo.append((module, key, original))
    return undo


def _observers() -> Dict[str, Callable[[Any], None]]:
    def snapshot_bytes(result: Any) -> None:
        if isinstance(result, (bytes, bytearray)):
            RECORDER.add("snapshot_bytes", len(result))

    def point_lookup(result: Any) -> None:
        RECORDER.add("point_lookups", 1)
        if result is not None:
            RECORDER.add("point_hits", 1)

    return {
        "repro.circuit.snapshot:dump_bytes": snapshot_bytes,
        "repro.benchsuite.cache:ArtifactCache.load_point": point_lookup,
    }


class _Flusher:
    """Writes this process's totals to a file of its own in ``directory``."""

    def __init__(self, directory: Path) -> None:
        self.directory = directory
        self.pid = os.getpid()
        self.path = self._path()

    def _path(self) -> Path:
        # pids are recycled across the pools of successive batches
        return self.directory / f"spans-{os.getpid()}-{uuid.uuid4().hex[:8]}.json"

    def adopt(self) -> None:
        """In a freshly forked worker, drop the totals of the parent."""
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.path = self._path()
            RECORDER.reset()

    def __call__(self) -> None:
        tmp = self.path.with_suffix(".tmp")
        tmp.write_text(json.dumps(RECORDER.totals()))
        os.replace(tmp, self.path)


def install(flush_dir: Optional[Path] = None) -> Callable[[], None]:
    """Wrap every layer entry point; returns the function that undoes it.

    With ``flush_dir``, each pool-worker task also writes the worker's
    totals there, and the returned undo function writes this process's.
    """
    undo: List[Tuple[Any, str, Any]] = []
    observers = _observers()
    missing = []
    for layer, target in LAYERS:
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            missing.append(target)
            continue
        name = _pass_layer if layer == "pass" else layer
        wrapped = RECORDER.wrap(name, original, observers.get(target))
        undo += _rebind(owner, attr, original, wrapped)
    if missing:
        print(f"perfbench: layer entry points not found: {missing}", file=sys.stderr)

    flush = _Flusher(flush_dir) if flush_dir is not None else None
    if flush is not None:
        # pool workers are forked per batch and exit without notice, so
        # they flush after every task instead of at exit
        owner, attr, task_fn = _resolve(WORKER_TASK)
        parent = os.getpid()

        @functools.wraps(task_fn)
        def run_and_flush(*args: Any, **kwargs: Any) -> Any:
            if os.getpid() == parent:  # degraded-serial run in the server
                return task_fn(*args, **kwargs)
            flush.adopt()
            try:
                return task_fn(*args, **kwargs)
            finally:
                flush()

        undo += _rebind(owner, attr, task_fn, run_and_flush)

    def uninstall() -> None:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
        if flush is not None:
            flush()

    return uninstall


def load_totals(directory: Path) -> Dict[str, Any]:
    """Sum the totals every process flushed into ``directory``."""
    seconds: Dict[str, float] = defaultdict(float)
    counts: Dict[str, int] = defaultdict(int)
    for path in sorted(directory.glob("spans-*.json")):
        data = json.loads(path.read_text())
        for key, value in data["seconds"].items():
            seconds[key] += value
        for key, value in data["counts"].items():
            counts[key] += value
    return {"seconds": dict(seconds), "counts": dict(counts)}
