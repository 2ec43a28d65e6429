"""Benchmark harness: compile Table 1 programs and collect the paper's metrics.

:class:`BenchmarkRunner` keeps bounded memos of its frontend work (a
:class:`~repro.compiler.pipeline.Frontend`: parsed programs and strictly
checked entry points, shared with ``repro serve``'s admission lint) and of
its compiled and cache-loaded circuits, and exposes the measurements every
table and figure of the evaluation needs:

* empirical MCX- and T-complexity at a recursion depth (Figure 2, Table 1),
* predicted complexities from the Section 5 cost model (Table 1 RQ1),
* fitted complexity polynomials across a depth range (Table 1/Table 3),
* T-counts after each circuit-optimizer baseline (Figures 12/15/24): a
  baseline is the pipeline with that gate pass appended, such as
  ``none+peephole`` or ``spire+toffoli-cancel``,
* compile and optimizer timings (Table 2).

:meth:`BenchmarkRunner.measure` produces every measurement row, in one
row shape and by one route: a pipeline's gate passes run on the longest
prefix circuit the runner already holds (its memos first, then the
artifact cache) or, when it holds none, on its compile prefix, compiled
into the memo.  A runner thus compiles each preset once, however many
baselines extend it.

Two orthogonal plug points scale the harness to the paper's full grids:

* ``cache`` — an :class:`~repro.benchsuite.cache.ArtifactCache`; every
  measurement becomes a one-time cost per (source, config, depth,
  pipeline, version), persisted across processes and sessions.
  Cache-hit points are marked ``cached=True`` and report the *cold*
  run's ``compile_seconds`` alongside this call's ``wall_seconds``.
* ``backend`` — an execution backend from
  :mod:`repro.benchsuite.parallel` (serial, or a process-pool grid
  runner) used by :meth:`BenchmarkRunner.run_grid`.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field, replace
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple, Union

from ..bounded import BoundedCache
from ..circuit.circuit import Circuit
from ..circuit.decompose import DecompositionCache
from ..compiler.pipeline import CompiledProgram, Frontend, compile_checked
from ..config import DEFAULT, CompilerConfig
from ..passes.manager import PassManager, PassRecord
from ..passes.pipeline import canonical_pipeline, resolve_pipeline
from ..cost.asymptotics import FitReport, fit_report
from ..cost.exact import exact_counts
from .cache import ArtifactCache
from .programs import Benchmark, resolve

#: compiled and cache-loaded circuits a runner keeps per memo (least
#: recently used evicted).  A paper grid lists every preset measure
#: before the optimizer baselines that resume from its circuit, so a reuse
#: spans every distinct circuit the grid measures: 48 for ``fuzz`` and 36
#: for ``fig15`` (9 depths x 4 pipelines) at their default sizes, the
#: widest of the grids.  64 keeps every one of those hits, with room for
#: a longer depth range.  A Table 1 program compiled as ``repro serve``
#: does costs about 85 KB here (tracemalloc), so a long-running server
#: holds at most about 5 MB of them, where an unbounded memo grew by one
#: program per distinct request.
COMPILED_MEMO_MAX = 64

#: where a held prefix circuit came from: the compiled program (memo) or
#: the measurement row stored with its snapshot (artifact cache)
Origin = Union[CompiledProgram, Dict[str, Any]]


@dataclass
class BenchmarkPoint:
    """Measurements of one benchmark at one depth under one pipeline.

    ``timings`` holds the cold run's seconds per compile step, keyed by
    :class:`~repro.passes.PassRecord` name (``typecheck``,
    ``flatten+narrow``, ``alloc``, ``lower``, a gate pass's name; a step
    that runs twice, as ``typecheck`` does after IR passes, counts both
    runs).  ``compile_seconds`` is their sum and is only ever measured
    once per point; ``wall_seconds`` is the wall clock of *this*
    :meth:`BenchmarkRunner.measure` call.  When ``cached`` is true the
    compile work did not happen in this call (in-memory memo or
    artifact-cache hit) and the two may differ by orders of magnitude —
    Table 2's timing reproduction must use ``compile_seconds`` and treat
    cached points as replays.
    """

    name: str
    depth: Optional[int]
    optimization: str
    mcx: int
    t: int
    qubits: int
    compile_seconds: float
    predicted_mcx: int = 0
    predicted_t: int = 0
    wall_seconds: float = 0.0
    cached: bool = False
    timings: Dict[str, float] = field(default_factory=dict)
    #: canonical pipeline spec the point was produced by
    pipeline: str = ""
    #: canonical spec of the held pipeline prefix this point resumed
    #: from (empty when compiled cold or replayed in full)
    prefix_cached: str = ""

    def row(self) -> Dict[str, Any]:
        """The point as a JSON-ready measurement row."""
        return asdict(self)


@dataclass
class ScalingResult:
    """A fitted complexity curve for one benchmark/metric."""

    name: str
    optimization: str
    metric: str
    fit: FitReport


class BenchmarkRunner:
    """Compiles and measures the benchmark programs."""

    def __init__(
        self,
        config: CompilerConfig = DEFAULT,
        cache: Optional[ArtifactCache] = None,
        backend: Optional["ExecutionBackend"] = None,
    ) -> None:
        self.config = config
        self.cache = cache
        self.backend = backend
        #: parsed programs and checked entries, keyed by source text
        self.frontend = Frontend()
        #: (name, depth, canonical spec) -> CompiledProgram
        self._compiled = BoundedCache(COMPILED_MEMO_MAX)
        #: (name, depth, canonical spec) -> (circuit, stored row) rehydrated
        #: from the artifact cache (no core IR attached)
        self._loaded = BoundedCache(COMPILED_MEMO_MAX)
        #: shared across optimizer baselines: `peephole`, `rotation-merge`
        #: and `zx-like` all decompose the same compiled circuit, and used
        #: to re-derive the (very large) Clifford+T expansion each time
        self.decomposition_cache = DecompositionCache()

    def _resolve(self, program: Union[str, Benchmark]) -> Benchmark:
        """A benchmark name's program, ``src:`` names from the runner's cache."""
        return resolve(program, self.cache) if isinstance(program, str) else program

    def compile(
        self, program: Union[str, Benchmark], depth: Optional[int] = None,
        optimization: str = "none",
    ) -> CompiledProgram:
        """Compile a benchmark (cached).

        ``optimization`` may be a preset, a ``preset+gatepass`` form, or a
        raw pipeline spec; the in-memory memo is keyed by the canonical
        pipeline spec, so equivalent spellings share one compile.
        """
        benchmark = self._resolve(program)
        if benchmark.unsized:
            depth = None
        key = (benchmark.name, depth, canonical_pipeline(optimization))
        return self._compiled.get(
            key,
            lambda: compile_checked(
                self.frontend.checked(benchmark.source, benchmark.entry, depth, self.config),
                optimization,
                decomposition_cache=self.decomposition_cache,
            ),
        )

    # -------------------------------------------------------- artifact cache
    def _key(self, program: Benchmark, depth: Optional[int], spec: str) -> str:
        """The artifact-cache key of one canonical pipeline spec."""
        return self.cache.key(
            source=program.source,
            entry=program.entry,
            config=self.config,
            depth=depth,
            pipeline=spec,
        )

    def _replay(
        self,
        program: Benchmark,
        depth: Optional[int],
        optimization: str,
        spec: str,
        start: float,
    ) -> Optional[BenchmarkPoint]:
        """The stored row of a full-pipeline hit, or ``None``."""
        row = self.cache.load_point(self._key(program, depth, spec))
        if row is None:
            return None
        row = dict(row)
        row["cached"] = True
        # identity fields are as THIS call spelled them: keys are
        # content-addressed over the source text and the canonical
        # pipeline, so two spellings can share an entry
        row["name"] = program.name
        row["optimization"] = optimization
        row["wall_seconds"] = time.perf_counter() - start
        return BenchmarkPoint(**row)

    def _held(
        self, program: Benchmark, depth: Optional[int], spec: str
    ) -> Optional[Tuple[Circuit, Origin]]:
        """The circuit of pipeline ``spec`` the runner already holds.

        Looks in the compiled memo, the loaded memo, then the artifact
        cache (a disk hit joins the loaded memo).  On disk the circuit is
        probed first: a prefix stored without one (the last gate pass of
        a pipeline) counts a miss, and its row is never read.  A stable
        object is returned per (name, depth, spec) so the shared
        :class:`DecompositionCache` keeps working across baselines.
        """
        key = (program.name, depth, spec)
        compiled = self._compiled.lookup(key)
        if compiled is not None:
            return compiled.circuit, compiled
        held = self._loaded.lookup(key)
        if held is not None or self.cache is None:
            return held
        cache_key = self._key(program, depth, spec)
        circuit = self.cache.load_circuit(cache_key)
        if circuit is None:
            return None
        row = self.cache.load_point(cache_key)
        if row is None:
            return None
        return self._loaded.get(key, lambda: (circuit, row))

    # ----------------------------------------------------------- measurement
    def measure(
        self, program: Union[str, Benchmark], depth: Optional[int] = None,
        optimization: str = "none",
    ) -> BenchmarkPoint:
        """Compile (or replay) one grid point and report its metrics.

        ``program`` is a benchmark name, resolved once here, or the
        :class:`Benchmark` it resolves to.  In order: a stored
        full-pipeline row replays; otherwise the pipeline's gate passes run
        from the longest prefix circuit the runner holds (:meth:`_held`),
        so editing a late pass — or adding an optimizer baseline — never
        recompiles the earlier stages; otherwise the pipeline's compile
        prefix compiles into the memo, where every later pipeline that
        extends it finds it, and all its gate passes run on that circuit.
        """
        start = time.perf_counter()
        program = self._resolve(program)
        if program.unsized:
            depth = None
        pipeline = resolve_pipeline(optimization)
        if self.cache is not None:
            replayed = self._replay(program, depth, optimization, pipeline.spec(), start)
            if replayed is not None:
                return replayed
        cached = False
        for prefix in pipeline.gate_prefixes():
            held = self._held(program, depth, prefix.spec())
            if held is not None:
                circuit, origin = held
                steps, resumed = [], prefix.spec()
                break
        else:
            prefix = pipeline.compile_prefix()
            # a preset measured again is a memo hit: no work in this call
            cached = self._compiled.lookup((program.name, depth, prefix.spec())) is not None
            origin = self.compile(program, depth, prefix.spec())
            circuit = origin.circuit
            steps, resumed = [(None, (prefix.spec(), circuit))], ""
        manager = PassManager(pipeline, decomposition_cache=self.decomposition_cache)
        _final, records, snapshots = manager.run_gate_suffix(
            circuit, start=len(prefix.passes)
        )
        steps += zip(records, snapshots)
        point = self._cut_points(program, depth, origin, steps, resumed)
        return replace(
            point,
            optimization=optimization,
            wall_seconds=time.perf_counter() - start,
            cached=cached,
        )

    def _cut_points(
        self,
        program: Benchmark,
        depth: Optional[int],
        origin: Origin,
        steps: Sequence[Tuple[Optional[PassRecord], Tuple[str, Circuit]]],
        prefix: str,
    ) -> BenchmarkPoint:
        """Build the row of every replayable cut point; returns the last.

        ``origin`` is where the first circuit came from: its step timings
        and predicted counts start every row.  ``steps`` pairs each (canonical
        prefix spec, circuit) snapshot with the gate-pass record that
        produced it (``None`` for the circuit ``origin`` compiled).  With
        an artifact cache, each cut point's row is stored, and so is each
        circuit a later measure can resume from: the compile prefix and
        every intermediate gate-pass output, but not the output of the
        pipeline's last gate pass.  A stored prefix row equals what
        measuring that prefix pipeline directly would record.  This is the
        one builder of :class:`BenchmarkPoint` rows.
        """
        if isinstance(origin, CompiledProgram):
            timings, predicted = {}, origin.predicted
            _add_seconds(timings, origin.pass_records)
        else:
            timings = dict(origin["timings"])
            predicted = (origin["predicted_mcx"], origin["predicted_t"])
        point = None
        last = len(steps) - 1
        for index, (record, (spec, circuit)) in enumerate(steps):
            if record is not None:
                _add_seconds(timings, [record])
            point = BenchmarkPoint(
                name=program.name,
                depth=depth,
                optimization=spec,
                mcx=circuit.mcx_complexity(),
                t=circuit.t_complexity(),
                qubits=circuit.num_qubits,
                compile_seconds=sum(timings.values()),
                predicted_mcx=predicted[0],
                predicted_t=predicted[1],
                timings=dict(timings),
                pipeline=spec,
                prefix_cached=prefix,
            )
            if self.cache is not None:
                key = self._key(program, depth, spec)
                self.cache.store_point(key, point.row())
                if record is None or index < last:
                    self.cache.store_circuit(key, circuit)
        return point

    def scaling(
        self,
        name: str,
        depths: Sequence[int],
        optimization: str = "none",
        metric: str = "t",
    ) -> ScalingResult:
        """Fit the metric across a depth range (the Section 8.1 method)."""
        ys: List[int] = []
        for depth in depths:
            point = self.measure(name, depth, optimization)
            ys.append(getattr(point, metric))
        return ScalingResult(
            name=name,
            optimization=optimization,
            metric=metric,
            fit=fit_report(list(depths), ys),
        )

    def exact_model_counts(
        self, name: str, depth: Optional[int], optimization: str = "none"
    ) -> Tuple[int, int]:
        """(MCX, T) by the exact cost model — equal to the circuit's counts."""
        compiled = self.compile(name, depth, optimization)
        return exact_counts(
            compiled.core, compiled.table, compiled.var_types, compiled.cell_bits
        )

    # ------------------------------------------------------------ grid sweeps
    def run_grid(self, tasks: Iterable["GridTask"], progress=None) -> "GridResult":
        """Run a (benchmark × depth × pipeline) task grid.

        Dispatches to the runner's execution backend (serial when none was
        configured); see :mod:`repro.benchsuite.parallel` for the task and
        result types and the process-pool backend.  With an artifact
        cache, each row is stored as it lands, so a sweep interrupted
        midway and run again on the same cache replays the points it
        stored and computes only the rest.
        """
        from .parallel import GridResult, SerialBackend

        backend = self.backend or SerialBackend()
        return GridResult(backend.run(self, list(tasks), progress=progress))


def _add_seconds(timings: Dict[str, float], records: Iterable[PassRecord]) -> None:
    """Add each record's seconds to ``timings[record.name]``."""
    for record in records:
        timings[record.name] = timings.get(record.name, 0.0) + record.seconds


def default_depths() -> List[int]:
    """The paper's full depth range (2..10), used by every grid sweep."""
    return list(range(2, 11))
