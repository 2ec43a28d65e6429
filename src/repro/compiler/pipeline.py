"""End-to-end compilation driver (the Spire/Tower compiler of Section 7).

``compile_source`` runs the full pipeline::

    source --parse/lower/inline--> core IR
           --[IR passes: Spire flattening/narrowing]-->
           --register allocation + abstract circuit (alloc)-->
           --gate lowering (lower)--> MCX-level Circuit
           --[optional gate passes: circuit optimizers]--> Clifford+T

Since the pass-manager refactor this module is a thin driver over
:mod:`repro.passes`: the ``optimization`` argument accepts the historical
presets (``none|spire|flatten|narrow``), preset+optimizer forms
(``spire+peephole``), or any raw pipeline spec
(``flatten,narrow,alloc,lower,peephole(window=32)``) — see
:func:`repro.passes.resolve_pipeline`.  The presets reproduce the
pre-refactor outputs bit-identically (``tests/data/seed_tcounts.json``).

The result bundles the circuit with everything needed by the evaluation
harness: the (optimized) core IR for the cost model, the register map for
simulation, complexity counts, per-pass records, and stage timings.

A compile of source starts from a *checked entry* (:func:`check_entry`):
the entry point lowered to core IR and checked strictly (Figure 20).
:class:`Frontend` memoizes parsed programs and checked entries for a
long-lived caller, such as the benchmark runner behind ``repro serve``,
whose admission lint builds the checked entry its compile then reuses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Tuple

from ..bounded import BoundedCache
from ..circuit.circuit import Circuit, Register
from ..config import CompilerConfig
from ..errors import LoweringError
from ..ir.core import MemSwap, Stmt
from ..ir.typecheck import check_program
from ..lang.ast import Program
from ..lang.desugar import Lowered, lower_entry
from ..lang.parser import parse_program
from ..types import Type, TypeTable

#: sources one :class:`Frontend` keeps (least recently used evicted).  A
#: Table 1 source costs about 58 KB (23 KB parsed, 35 KB checked entry),
#: and ``repro serve`` only needs a source from its admission lint until
#: its compile, a few requests later.
FRONTEND_MEMO_MAX = 32


@dataclass
class CompiledProgram:
    """The output of the compilation pipeline."""

    circuit: Circuit
    core: Stmt
    table: TypeTable
    config: CompilerConfig
    cell_bits: int
    param_types: Dict[str, Type]
    return_var: Optional[str]
    var_types: Dict[str, Type] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    #: the canonical pipeline spec the circuit was produced by
    pipeline: str = ""
    #: per-pass execution records (:class:`repro.passes.PassRecord`)
    pass_records: List[Any] = field(default_factory=list)
    #: the analyze stage's static cost bound
    #: (:class:`repro.analysis.passes.StaticCostBound`), when the
    #: pipeline included an ``analyze`` pass
    analysis: Any = None

    # ----------------------------------------------------------- convenience
    @cached_property
    def predicted(self) -> Tuple[int, int]:
        """(MCX, T) predicted by the Section 5 cost model; computed once
        per program, however many optimizer baselines resume from it."""
        from ..cost.model import predicted_counts

        report = predicted_counts(self.core, self.table, self.var_types, self.cell_bits)
        return report.mcx, report.t

    def mcx_complexity(self) -> int:
        """Gate count on the idealized architecture (Section 5)."""
        return self.circuit.mcx_complexity()

    def t_complexity(self) -> int:
        """T gates under the Clifford+T decomposition (Section 5)."""
        return self.circuit.t_complexity()

    def num_qubits(self) -> int:
        return self.circuit.num_qubits

    def register(self, name: str) -> Register:
        return self.circuit.registers[name]


def infer_cell_bits(
    stmt: Stmt, table: TypeTable, var_types: Dict[str, Type]
) -> int:
    """Width of a heap cell: the widest type ever swapped into memory."""
    widest = 0
    for node in stmt.walk():
        if isinstance(node, MemSwap):
            ty = var_types.get(node.value)
            if ty is None:
                raise LoweringError(
                    f"no type for memory-swapped variable {node.value!r}"
                )
            widest = max(widest, table.width(ty))
    return widest


@dataclass(frozen=True)
class CheckedEntry:
    """An entry point lowered to core IR that passed the strict (Figure 20)
    typecheck: what every compile of it starts from."""

    lowered: Lowered
    #: wall time of the strict typecheck, charged to each compile of the
    #: entry (``timings["optimize"]``), wherever the check itself ran
    check_seconds: float


def check_entry(
    program: Program,
    entry: str,
    size: Optional[int] = None,
    config: Optional[CompilerConfig] = None,
) -> CheckedEntry:
    """Lower one entry point and check it strictly; raises on failure."""
    lowered = lower_entry(program, entry, size, config)
    start = time.perf_counter()
    check_program(lowered.stmt, lowered.table, lowered.param_types)
    return CheckedEntry(lowered, time.perf_counter() - start)


class Frontend:
    """Bounded memo of the compiler frontend: parse, desugar, strict check.

    Maps a source text to its parsed program, and (source, entry, size,
    config) to its :class:`CheckedEntry`, where ``size`` is the bound the
    entry binds (None for an unsized entry, whatever the caller asked).
    Each memo keeps at most :data:`FRONTEND_MEMO_MAX` entries, and both
    are safe to use from several threads.  Failures are not memoized:
    they raise again.
    """

    def __init__(self) -> None:
        self._programs = BoundedCache(FRONTEND_MEMO_MAX)
        self._checked = BoundedCache(FRONTEND_MEMO_MAX)

    def program(self, source: str) -> Program:
        """The parsed ``source``."""
        return self._programs.get(source, lambda: parse_program(source))

    def checked(
        self,
        source: str,
        entry: str,
        size: Optional[int] = None,
        config: Optional[CompilerConfig] = None,
    ) -> CheckedEntry:
        """The checked ``entry`` of ``source`` at recursion bound ``size``."""
        program = self.program(source)
        if program.fun(entry).size_param is None:
            size = None
        return self._checked.get(
            (source, entry, size, config),
            lambda: check_entry(program, entry, size, config),
        )


def compile_core(
    stmt: Stmt,
    table: TypeTable,
    param_types: Dict[str, Type],
    optimization: str = "none",
    return_var: Optional[str] = None,
    verify: bool = False,
    decomposition_cache=None,
) -> CompiledProgram:
    """Compile a core IR statement (inputs given by ``param_types``).

    ``optimization`` may be a preset, a ``preset+gatepass`` form, or a raw
    pipeline spec.  The statement is first checked strictly (Figure 20).
    ``verify`` enables between-pass invariant checking
    (``--verify-passes``).
    """
    start = time.perf_counter()
    check_program(stmt, table, param_types)
    return _run_pipeline(
        stmt,
        table,
        param_types,
        time.perf_counter() - start,
        optimization,
        return_var,
        verify=verify,
        decomposition_cache=decomposition_cache,
    )


def compile_checked(
    checked: CheckedEntry, optimization: str = "none", **kwargs
) -> CompiledProgram:
    """Compile a :class:`CheckedEntry` (its strict check is not repeated)."""
    lowered = checked.lowered
    return _run_pipeline(
        lowered.stmt,
        lowered.table,
        lowered.param_types,
        checked.check_seconds,
        optimization,
        lowered.return_var,
        **kwargs,
    )


def _run_pipeline(
    stmt: Stmt,
    table: TypeTable,
    param_types: Dict[str, Type],
    check_seconds: float,
    optimization: str,
    return_var: Optional[str],
    verify: bool = False,
    decomposition_cache=None,
) -> CompiledProgram:
    """Run the pipeline over strictly checked core IR; ``check_seconds``,
    the strict check's time, counts as part of ``timings["optimize"]``."""
    # function-level import: repro.compiler must be importable before
    # repro.passes has finished initializing (the pass framework's lowering
    # passes import back into this package)
    from ..passes.manager import PassManager
    from ..passes.pipeline import resolve_pipeline

    pipeline = resolve_pipeline(optimization)
    manager = PassManager(
        pipeline,
        verify=verify,
        decomposition_cache=decomposition_cache,
    )
    run = manager.run(stmt, table, param_types)
    run.timings["optimize"] += check_seconds

    return CompiledProgram(
        circuit=run.circuit,
        core=run.stmt,
        table=table,
        config=table.config,
        cell_bits=run.cell_bits,
        param_types=dict(param_types),
        return_var=return_var,
        var_types=run.var_types,
        timings=run.timings,
        pipeline=pipeline.spec(),
        pass_records=run.records,
        analysis=run.analysis,
    )


def compile_program(
    program: Program,
    entry: str,
    size: Optional[int] = None,
    config: Optional[CompilerConfig] = None,
    optimization: str = "none",
    **kwargs,
) -> CompiledProgram:
    """Compile one entry point of a parsed program."""
    checked = check_entry(program, entry, size, config)
    return compile_checked(checked, optimization, **kwargs)


def compile_source(
    source: str,
    entry: str,
    size: Optional[int] = None,
    config: Optional[CompilerConfig] = None,
    optimization: str = "none",
    **kwargs,
) -> CompiledProgram:
    """Parse and compile a Tower source program in one step."""
    return compile_program(
        parse_program(source), entry, size, config, optimization, **kwargs
    )
