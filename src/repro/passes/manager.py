"""The :class:`PassManager`: run a pipeline with timing and checks.

One manager executes one :class:`~repro.passes.pipeline.Pipeline` over a
core-IR statement, producing a :class:`PipelineRun` that bundles the final
circuit with every intermediate the rest of the system needs (the
post-rewrite core IR for the cost model, inferred types, per-pass timing
records).  :meth:`PassManager.run_gate_suffix` resumes the gate passes
from a circuit and returns the circuit at every replayable prefix, which
the benchmark cache stores for pass-granular warm replays.
:func:`rewrite_ir` applies only a pipeline's IR passes, with the same
grouping, so the static cost analysis prices exactly the rewrite a
compile runs.

Between-pass verification (``verify=True``, the CLI's ``--verify-passes``)
checks the machine-checkable declared invariants:

* after every IR rewrite, the program must still typecheck under the
  relaxed Figure-20 rules (:data:`~repro.passes.base.PRESERVES_TYPES`);
* after every gate pass declaring
  :data:`~repro.passes.base.TCOUNT_NONINCREASING`, the result's T-count
  must not exceed that of the Clifford+T expansion of the pass's input;
* gate passes declaring :data:`~repro.passes.base.CLIFFORD_T_OUTPUT`
  must emit a pure Clifford+T circuit.

Violations raise :class:`~repro.passes.base.PassVerificationError` naming
the offending pass — the same attribution the fuzzing harness's pipeline
bisection reports for semantic defects.

Adjacent IR passes sharing an *engine* (see :mod:`repro.passes.builtin`)
are fused into a single traversal; the fused group appears as one
:class:`PassRecord` whose ``members`` lists the constituent passes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..circuit.circuit import Circuit
from ..circuit.decompose import DecompositionCache
from ..config import CompilerConfig
from ..errors import ReproError
from ..ir.core import Stmt
from ..ir.typecheck import check_program
from ..types import Type, TypeTable
from .base import (
    ANALYZE,
    CLIFFORD_T_OUTPUT,
    GATES,
    IR,
    PassVerificationError,
    PRESERVES_TYPES,
    STATIC_COST_BOUND,
    TCOUNT_NONINCREASING,
    get_pass_class,
    make_pass,
)
from .builtin import ENGINES
from .pipeline import Pipeline, PassSpec


@dataclass
class PassContext:
    """Mutable state threaded through a pipeline run."""

    table: TypeTable
    param_types: Dict[str, Type]
    config: CompilerConfig
    stmt: Stmt
    var_types: Dict[str, Type] = field(default_factory=dict)
    cell_bits: int = 0
    abstract: Any = None
    circuit: Optional[Circuit] = None
    decomposition_cache: Optional[DecompositionCache] = None
    #: the pipeline being run (so analyze-stage passes can predict the
    #: cost of the program as *this* pipeline will rewrite it)
    pipeline: Optional[Pipeline] = None
    #: analyze-stage output (:class:`repro.analysis.passes.StaticCostBound`)
    analysis: Any = None


@dataclass
class PassRecord:
    """Bookkeeping for one executed pass (or fused pass group)."""

    name: str
    stage: str
    seconds: float
    params: Dict[str, Any] = field(default_factory=dict)
    #: constituent pass names when this record is a fused group
    members: Tuple[str, ...] = ()
    #: invariants actually checked after this pass (verify mode)
    verified: Tuple[str, ...] = ()

    def row(self) -> Dict[str, Any]:
        return {
            "pass": self.name,
            "stage": self.stage,
            "seconds": round(self.seconds, 6),
            "params": dict(self.params),
            "members": list(self.members),
            "verified": list(self.verified),
        }


@dataclass
class PipelineRun:
    """Everything a pipeline execution produced."""

    pipeline: Pipeline
    stmt: Stmt
    var_types: Dict[str, Type]
    cell_bits: int
    abstract: Any
    circuit: Circuit
    records: List[PassRecord]
    #: legacy stage timings (``optimize``/``typecheck``/``lower_ir``/
    #: ``lower_gates`` plus ``opt:<name>``, the summed time of every run
    #: of that gate pass); ``optimize``
    #: covers the IR passes, and :mod:`repro.compiler.pipeline` adds the
    #: strict check's time to it
    timings: Dict[str, float]
    #: the analyze stage's output (a
    #: :class:`repro.analysis.passes.StaticCostBound`), when the pipeline
    #: included an ``analyze`` pass
    analysis: Any = None


def add_gate_timing(timings: Dict[str, float], record: PassRecord) -> None:
    """Add a gate pass's time to ``timings["opt:<name>"]``: a pass that
    runs twice in one pipeline counts both runs."""
    key = f"opt:{record.name}"
    timings[key] = timings.get(key, 0.0) + record.seconds


def _group_passes(pipeline: Pipeline) -> List[List[Tuple[int, PassSpec]]]:
    """Split the pass list into execution groups, fusing engine neighbours."""
    groups: List[List[Tuple[int, PassSpec]]] = []
    for index, spec in enumerate(pipeline.passes):
        cls = get_pass_class(spec.name)
        if (
            groups
            and cls.stage == IR
            and cls.engine
            and all(
                get_pass_class(s.name).engine == cls.engine
                for _, s in groups[-1]
            )
            and get_pass_class(groups[-1][-1][1].name).stage == IR
        ):
            groups[-1].append((index, spec))
        else:
            groups.append([(index, spec)])
    return groups


def _apply_group(ctx: PassContext, specs: List[PassSpec]) -> None:
    """Apply one execution group to ``ctx``: an engine-fused group runs one
    traversal with the union of its rules, any other group its one pass."""
    if len(specs) > 1:
        engine = get_pass_class(specs[0].name).engine
        rules = frozenset().union(
            *(get_pass_class(s.name).rules for s in specs)
        )
        ctx.stmt = ENGINES[engine](rules, ctx.stmt)
    else:
        make_pass(specs[0].name, **specs[0].kwargs()).apply(ctx)


def rewrite_ir(
    pipeline: Pipeline,
    stmt: Stmt,
    table: TypeTable,
    param_types: Dict[str, Type],
) -> Stmt:
    """``stmt`` after the pipeline's IR passes, grouped and fused as a
    :class:`PassManager` run groups them (no timing, no records)."""
    ctx = PassContext(
        table=table,
        param_types=dict(param_types),
        config=table.config,
        stmt=stmt,
    )
    for group in _group_passes(pipeline):
        specs = [spec for _, spec in group]
        if specs[0].stage == IR:
            _apply_group(ctx, specs)
    return ctx.stmt


class PassManager:
    """Execute a pipeline with timing and optional verification."""

    def __init__(
        self,
        pipeline: Pipeline,
        *,
        verify: bool = False,
        decomposition_cache: Optional[DecompositionCache] = None,
    ) -> None:
        self.pipeline = pipeline
        self.verify = verify
        self.decomposition_cache = decomposition_cache or DecompositionCache()

    # ----------------------------------------------------------------- runs
    def run(
        self,
        stmt: Stmt,
        table: TypeTable,
        param_types: Dict[str, Type],
    ) -> PipelineRun:
        """Compile ``stmt`` through the full pipeline.

        ``stmt`` must already have passed the strict (Figure 20) typecheck
        (:func:`repro.compiler.pipeline.compile_core` runs it); the
        relaxed check runs after the pipeline's IR passes, if it has any,
        and in verify mode after every IR pass.
        """
        ctx = PassContext(
            table=table,
            param_types=dict(param_types),
            config=table.config,
            stmt=stmt,
            decomposition_cache=self.decomposition_cache,
            pipeline=self.pipeline,
        )
        records: List[PassRecord] = []
        timings: Dict[str, float] = {}

        groups = _group_passes(self.pipeline)
        ir_seconds = 0.0
        relaxed_seconds = 0.0
        relaxed_done = False
        for group in groups:
            first_index, first = group[0]
            stage = get_pass_class(first.name).stage
            if stage not in (ANALYZE, IR) and not relaxed_done:
                relaxed_done = True
                start = time.perf_counter()
                if self.pipeline.ir_passes:
                    # optimizer output satisfies a relaxed S-If domain
                    # condition only
                    check_program(
                        ctx.stmt, table, ctx.param_types, relaxed=True
                    )
                relaxed_seconds = time.perf_counter() - start
            record = self._run_group(ctx, group)
            records.append(record)
            if stage == ANALYZE:
                timings["analyze"] = (
                    timings.get("analyze", 0.0) + record.seconds
                )
            elif stage == IR:
                ir_seconds += record.seconds
            elif first.name == "alloc":
                timings["lower_ir"] = record.seconds
            elif first.name == "lower":
                timings["lower_gates"] = record.seconds
            else:
                add_gate_timing(timings, record)
            if (
                self.verify
                and first.name == "lower"
                and ctx.analysis is not None
                and ctx.circuit is not None
            ):
                self._check_static_bound_at_lower(ctx)

        if (
            self.verify
            and ctx.analysis is not None
            and ctx.circuit is not None
            and self.pipeline.gate_passes
        ):
            final_t = ctx.circuit.t_count()
            if final_t > ctx.analysis.t:
                raise PassVerificationError(
                    "analyze",
                    STATIC_COST_BOUND,
                    f"gate passes regressed the static T bound: "
                    f"{final_t} > {ctx.analysis.t}",
                )

        timings["optimize"] = ir_seconds
        timings["typecheck"] = relaxed_seconds
        return PipelineRun(
            pipeline=self.pipeline,
            stmt=ctx.stmt,
            var_types=ctx.var_types,
            cell_bits=ctx.cell_bits,
            abstract=ctx.abstract,
            circuit=ctx.circuit,
            records=records,
            timings=timings,
            analysis=ctx.analysis,
        )

    def run_gate_suffix(
        self, circuit: Circuit, start: int
    ) -> Tuple[Circuit, List[PassRecord], List[Tuple[str, Circuit]]]:
        """Resume the pipeline's gate passes from a prefix snapshot.

        ``start`` indexes into the pipeline's pass list: every pass from
        there on must be a gate pass (the caller replays a circuit cached
        at that cut point).  Returns the final circuit, the suffix's pass
        records, and the (prefix spec, circuit) snapshots computed on the
        way — ready to be stored for even-longer prefix replays.
        """
        specs = self.pipeline.passes[start:]
        if any(s.stage != GATES for s in specs):
            raise ValueError(
                "run_gate_suffix can only resume at a gate-pass boundary"
            )
        ctx = PassContext(
            table=None,  # type: ignore[arg-type]  # gate passes never touch it
            param_types={},
            config=None,  # type: ignore[arg-type]
            stmt=None,  # type: ignore[arg-type]
            circuit=circuit,
            decomposition_cache=self.decomposition_cache,
        )
        records: List[PassRecord] = []
        snapshots: List[Tuple[str, Circuit]] = []
        for offset, spec in enumerate(specs):
            record = self._run_group(ctx, [(start + offset, spec)])
            records.append(record)
            prefix = Pipeline(self.pipeline.passes[: start + offset + 1])
            snapshots.append((prefix.spec(), ctx.circuit))
        return ctx.circuit, records, snapshots

    # ------------------------------------------------------------ internals
    def _check_static_bound_at_lower(self, ctx: PassContext) -> None:
        """The built circuit must cost exactly what the analyze stage
        predicted for this pipeline's rewrite of the program."""
        got = (ctx.circuit.mcx_complexity(), ctx.circuit.t_complexity())
        want = (ctx.analysis.mcx, ctx.analysis.t)
        if got != want:
            raise PassVerificationError(
                "analyze",
                STATIC_COST_BOUND,
                f"circuit (MCX, T) = {got} differs from the static "
                f"bound {want}",
            )

    def _run_group(
        self, ctx: PassContext, group: List[Tuple[int, PassSpec]]
    ) -> PassRecord:
        specs = [spec for _, spec in group]
        first_cls = get_pass_class(specs[0].name)
        stage = first_cls.stage
        name = "+".join(s.name for s in specs)
        params: Dict[str, Any] = {}
        for spec in specs:
            params.update(spec.kwargs())

        reference_t: Optional[int] = None
        if (
            self.verify
            and stage == GATES
            and TCOUNT_NONINCREASING in first_cls.invariants
        ):
            reference_t = self.decomposition_cache.clifford_t(
                ctx.circuit
            ).t_count()

        start = time.perf_counter()
        _apply_group(ctx, specs)
        seconds = time.perf_counter() - start

        verified: List[str] = []
        if self.verify:
            if stage == IR:
                try:
                    check_program(
                        ctx.stmt, ctx.table, ctx.param_types, relaxed=True
                    )
                except ReproError as exc:
                    raise PassVerificationError(
                        name, PRESERVES_TYPES, str(exc)
                    ) from exc
                verified.append(PRESERVES_TYPES)
            if stage == GATES:
                if reference_t is not None:
                    result_t = ctx.circuit.t_count()
                    if result_t > reference_t:
                        raise PassVerificationError(
                            name,
                            TCOUNT_NONINCREASING,
                            f"T-count rose {reference_t} -> {result_t}",
                        )
                    verified.append(TCOUNT_NONINCREASING)
                if CLIFFORD_T_OUTPUT in first_cls.invariants:
                    if not ctx.circuit.is_clifford_t():
                        raise PassVerificationError(
                            name,
                            CLIFFORD_T_OUTPUT,
                            "result is not a Clifford+T circuit",
                        )
                    verified.append(CLIFFORD_T_OUTPUT)

        return PassRecord(
            name=name,
            stage=stage,
            seconds=seconds,
            params=params,
            members=tuple(s.name for s in specs) if len(specs) > 1 else (),
            verified=tuple(verified),
        )
