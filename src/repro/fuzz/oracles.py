"""Differential oracles: every layer of the pipeline checked against the rest.

For one generated (or corpus) program, :func:`run_oracles` checks:

* **render round-trip** — rendering the surface AST to Tower source and
  re-parsing reproduces the identical AST (lexer + parser oracle);
* **typecheck** — the lowered core is well-formed under Figure 20 (a
  failure here is a generator-discipline defect, reported as such);
* **reverse involution** — ``I[I[s]] = s`` structurally, and running
  ``s; I[s]`` on the interpreter restores every register and the heap;
* **cost model** — :func:`repro.cost.exact.exact_counts` equals the
  compiled circuit's MCX/T counts at every optimization level;
* **interpreter vs. circuit** — on random basis inputs, the classical
  simulation of the compiled circuit agrees register-for-register (and
  heap-cell-for-heap-cell) with the IR interpreter, at every optimization
  level; every qubit outside the final register map ends at 0 (ancilla /
  freed-register cleanliness); the circuit's inverse undoes it;
* **statevector vs. classical** — the sparse statevector simulation of the
  same circuit lands on exactly the predicted basis state (dense
  cross-check too when the circuit is small enough);
* **circuit optimizers** — every deterministic baseline produces a
  Clifford+T circuit that fixes the same basis states (checked through the
  sparse statevector) and never exceeds the T-count of the plain
  Clifford+T expansion it started from.  Optimizer effort is size-tiered
  (:attr:`OracleConfig.optimizer_t_cap` /
  :attr:`OracleConfig.optimizer_full_sim_t_cap`): oversized expansions
  skip the baselines (recorded in stats, surfaced by the CLI — a pure
  function of the circuit, so runs stay deterministic).

Programs that contain ``H(x)`` statements have no classical semantics, so
the interpreter and classical-simulation oracles above do not apply.  They
are replaced by the **amplitude oracles** of :func:`_check_superposition`:
the full sparse amplitude dictionary of the compiled circuit on each basis
input is canonicalized — every branch must leave non-register qubits at
|0⟩, branches are keyed by named-register values so different register
allocations compare, and a global phase is fixed deterministically — and
must agree (within tolerance) across *all* optimization levels, with every
circuit-optimizer baseline, and with the dense statevector on small
circuits; running the circuit's inverse on the final state must restore the
input basis state exactly.

When the workload carries heap shapes (:class:`~repro.fuzz.generator.
HeapShapeInfo`), basis inputs are drawn from well-formed list/tree images
built by :mod:`repro.benchsuite.memory_images`, mutated between inputs by
invariant-preserving shape mutations, so the generated recursive traversals
exercise real data-structure walks end to end.

A failed oracle raises :class:`OracleFailure` whose ``oracle`` field is the
stable signature used by :mod:`repro.fuzz.shrink` to preserve the failure
while minimizing.  Unexpected exceptions in any stage are converted into
``crash[stage]`` failures — a compiler crash on a well-typed program is a
finding, not a harness error.

Optimization levels are pass pipelines (presets or raw specs, see
:mod:`repro.passes`).  When an oracle failure is tagged with a level whose
pipeline contains more than one IR pass, :func:`run_oracles` **bisects**
the pipeline: it re-runs the same oracles on growing pipeline prefixes
(``flatten`` then ``flatten,narrow`` …) and appends the first offending
pass to the failure signature (``opt-vs-interp[spire]@pass:narrow``), so a
finding attributes the broken rewrite, not just the level.  With
:attr:`OracleConfig.verify_passes` the compiler additionally runs the pass
manager's between-pass invariant checks on every compile.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..benchsuite.memory_images import (
    HeapImage,
    mutate_list_shape,
    mutate_tree_shape,
    random_list_shape,
    random_tree_shape,
)
from ..circuit import classical_sim
from ..circuit.decompose import DecompositionCache
from ..circuit.statevector import (
    SparseState,
    basis_state,
    fix_global_phase,
    run as dense_run,
    sparse_is_basis,
    sparse_run,
    sparse_to_dense,
    states_equal,
)
from ..compiler.pipeline import CompiledProgram, compile_core
from ..config import CompilerConfig
from ..cost.exact import exact_counts
from ..errors import ReproError, SimulationError
from ..ir.core import Hadamard, seq
from ..ir.interp import run_program
from ..ir.reverse import reverse
from ..ir.typecheck import check_program
from ..lang.ast import Program
from ..lang.parser import parse_program
from ..passes import PassError, make_pass, resolve_pipeline
from .generator import (
    DEFAULT_FUZZ_CONFIG,
    GenConfig,
    HeapShapeInfo,
    default_fuzz_config,
    generate_workload,
    render_program,
)
from ..lang.desugar import lower_entry


class OracleFailure(Exception):
    """One failed differential check.

    ``oracle`` is a stable signature (e.g. ``circuit-vs-interp[spire]``)
    used to decide whether a shrunk candidate still exhibits *the same*
    failure; ``message`` carries the concrete mismatch.
    """

    def __init__(self, oracle: str, message: str) -> None:
        super().__init__(f"{oracle}: {message}")
        self.oracle = oracle
        self.message = message


@dataclass(frozen=True)
class OracleConfig:
    """Which oracles run and how hard they push."""

    compiler: CompilerConfig = DEFAULT_FUZZ_CONFIG
    optimizations: Tuple[str, ...] = ("none", "spire", "flatten", "narrow")
    optimizers: Tuple[str, ...] = (
        "peephole",
        "rotation-merge",
        "toffoli-cancel",
        "zx-like",
    )
    n_inputs: int = 3              #: basis inputs tried per program
    dense_max_qubits: int = 10     #: dense statevector cross-check cap
    sparse_support_cap: int = 1 << 12
    amp_tol: float = 1e-7          #: per-amplitude tolerance of the oracles
    check_optimizers: bool = True
    check_statevector: bool = True
    #: the static-analysis oracles: the symbolic cost machinery's static
    #: (MCX, T) bound — computed from the surface program without building
    #: a circuit — must equal the compiled circuit's counts at every
    #: level, and a program whose reference core is free of
    #: error-severity lint findings must stay that way after every
    #: level's IR rewrite
    check_static_analysis: bool = True
    #: skip the circuit-optimizer baselines when the plain Clifford+T
    #: expansion's T-count exceeds this (``None`` = no cap).  Optimizer
    #: fixpoint passes and their statevector replays are linear in the
    #: expanded gate count, so a handful of oversized programs would
    #: otherwise eat the whole fuzzing budget for no new rewrite coverage;
    #: the cap is a pure function of the compiled circuit, so runs stay
    #: deterministic.  Skips are recorded in ``stats["optimizers_skipped"]``
    #: and surfaced by the CLI summary — never silent.
    optimizer_t_cap: Optional[int] = 150_000
    #: above this T-count each optimizer's semantics is replayed on one
    #: basis input instead of all ``n_inputs`` (the per-level oracles
    #: already cover every input at the MCX level)
    optimizer_full_sim_t_cap: int = 25_000
    #: run the pass manager's between-pass invariant checks on every
    #: compile (the CLI's ``--verify-passes``): relaxed re-typecheck after
    #: each IR pass, T-count monotonicity / Clifford+T output after gate
    #: passes
    verify_passes: bool = False
    #: on a level-tagged oracle failure, re-run the pipeline
    #: prefix-by-prefix and append the first offending pass to the
    #: signature
    bisect: bool = True


def oracle_config_for(
    gen: GenConfig, base: Optional[OracleConfig] = None
) -> OracleConfig:
    """The oracle config matching a generator-knob set.

    Heap-shape workloads need the wider :data:`~repro.fuzz.generator.
    HEAP_FUZZ_CONFIG` compiler config; an explicitly non-default compiler
    config in ``base`` is left untouched.
    """
    cfg = base if base is not None else OracleConfig()
    if cfg.compiler == DEFAULT_FUZZ_CONFIG:
        cfg = replace(cfg, compiler=default_fuzz_config(gen))
    return cfg


@dataclass
class OracleReport:
    """The outcome of all oracles on one program."""

    seed: Optional[int]
    ok: bool
    oracle: Optional[str] = None
    message: Optional[str] = None
    source: str = ""
    stats: Dict[str, Any] = field(default_factory=dict)
    #: generator knobs the program was built with (set by check_generated;
    #: coverage-guided scheduling mutates knobs per seed, so reproducing a
    #: failure needs them alongside the seed)
    gen: Optional[GenConfig] = None


def _stage(oracle: str, fn, *args, **kwargs):
    """Run one stage, converting unexpected exceptions into failures."""
    try:
        return fn(*args, **kwargs)
    except OracleFailure:
        raise
    except ReproError as exc:
        raise OracleFailure(oracle, f"{type(exc).__name__}: {exc}") from exc
    except Exception as exc:  # compiler crash on a well-typed program
        raise OracleFailure(f"crash[{oracle}]", f"{type(exc).__name__}: {exc}") from exc


def _random_inputs(rng, widths: Dict[str, int]) -> Dict[str, int]:
    return {
        name: rng.randrange(1 << width) if width else 0
        for name, width in widths.items()
    }


class _InputPlan:
    """Draws (inputs, memory) pairs, honoring the workload's heap shapes.

    Unshaped parameters and heap cells are uniformly random as before.  For
    each shaped parameter a well-formed list/tree image is laid out and the
    parameter receives its head address; across draws the shape evolves by
    invariant-preserving mutations (or a fresh random shape), so the
    traversal sees empty, partial and full structures.  Cells outside the
    structures keep random junk — a well-formed traversal never reads them,
    which the oracles then implicitly verify.
    """

    def __init__(
        self,
        rng: random.Random,
        widths: Dict[str, int],
        shapes: Sequence[HeapShapeInfo],
        compiler: CompilerConfig,
        cell_bits: int,
    ) -> None:
        self.rng = rng
        self.widths = widths
        self.shapes = tuple(shapes)
        self.compiler = compiler
        self.cell_bits = cell_bits
        self._current: Dict[str, Any] = {}

    def _next_shape(self, shape: HeapShapeInfo):
        rng, cfg = self.rng, self.compiler
        previous = self._current.get(shape.param)
        fresh = previous is None or rng.random() < 0.4
        if shape.kind == "list":
            cap = min(cfg.heap_cells, shape.bound + 1)
            value = (
                random_list_shape(rng, cfg, cap)
                if fresh
                else mutate_list_shape(rng, previous, cfg, cap)
            )
        elif shape.kind == "tree":
            value = (
                random_tree_shape(rng, cfg, shape.bound)
                if fresh
                else mutate_tree_shape(rng, previous, cfg, shape.bound)
            )
        else:  # pragma: no cover - guarded by the generator
            raise SimulationError(f"unknown heap shape kind {shape.kind!r}")
        self._current[shape.param] = value
        return value

    def draw(self) -> Tuple[Dict[str, int], List[int]]:
        inputs = _random_inputs(self.rng, self.widths)
        memory = [0] + [
            self.rng.randrange(1 << self.cell_bits) if self.cell_bits else 0
            for _ in range(self.compiler.heap_cells)
        ]
        if self.shapes:
            image = HeapImage(self.compiler)
            for shape in self.shapes:
                if shape.param not in self.widths:
                    continue  # parameter shrunk away; shape is moot
                value = self._next_shape(shape)
                if shape.kind == "list":
                    inputs[shape.param] = image.add_list(value)
                else:
                    inputs[shape.param] = image.add_value_tree(value)
            for addr, cell in image.cells.items():
                memory[addr] = cell
        return inputs, memory


# ----------------------------------------------------- amplitude canonical
#: canonical branch key: sorted ((register name, value), ...) of one branch
BranchKey = Tuple[Tuple[str, int], ...]


def _register_layout(circuit) -> Tuple[Tuple[str, int, int], ...]:
    """(name, offset, width) triples of a circuit's register map."""
    return tuple(
        (name, reg.offset, reg.width)
        for name, reg in sorted(circuit.registers.items())
    )


def _canonical_branches(
    amps: SparseState,
    layout: Tuple[Tuple[str, int, int], ...],
    shared: Optional[frozenset],
    oracle: str,
    tol: float,
    packed: int = 0,
) -> Dict[BranchKey, complex]:
    """Canonicalize a sparse state into named-register branch amplitudes.

    Every branch must leave qubits outside the register map at |0⟩
    (amplitude-level ancilla cleanliness).  Registers excluded from
    ``shared`` — ones the compared circuit does not allocate, so it cannot
    model changes to them — must still hold their initial value from
    ``packed`` in every branch.  The returned dict keys branches by the
    values of the shared registers; a final deterministic global-phase fix
    makes dicts from equal states numerically comparable.
    """
    covered = 0
    for _, offset, width in layout:
        covered |= ((1 << width) - 1) << offset
    canon: Dict[BranchKey, complex] = {}
    for idx, amp in amps.items():
        if abs(amp) <= tol:
            continue
        if idx & ~covered:
            raise OracleFailure(
                f"ancilla-nonzero[{oracle}]",
                f"branch {idx:#x} (|amp|={abs(amp):.3g}) has qubits outside "
                "the register map nonzero",
            )
        key_parts: List[Tuple[str, int]] = []
        for name, offset, width in layout:
            value = (idx >> offset) & ((1 << width) - 1)
            if shared is not None and name not in shared:
                initial = (packed >> offset) & ((1 << width) - 1)
                if value != initial:
                    raise OracleFailure(
                        f"register-drift[{oracle}]",
                        f"register {name!r} exclusive to one circuit moved "
                        f"{initial} -> {value} in branch {idx:#x}",
                    )
                continue
            key_parts.append((name, value))
        key = tuple(key_parts)
        canon[key] = canon.get(key, 0.0 + 0.0j) + amp
    if not canon:
        raise OracleFailure(
            f"amps-empty[{oracle}]", "statevector lost all amplitude"
        )
    return fix_global_phase(canon)


def _compare_branches(
    reference: Dict[BranchKey, complex],
    candidate: Dict[BranchKey, complex],
    oracle: str,
    tol: float,
) -> None:
    """Amplitude-dict equality up to the already-fixed global phase."""
    for key in set(reference) | set(candidate):
        a = reference.get(key, 0.0)
        b = candidate.get(key, 0.0)
        if abs(a - b) > tol:
            label = " ".join(f"{n}={v}" for n, v in key) or "<empty>"
            raise OracleFailure(
                oracle,
                f"branch [{label}]: reference amplitude {a:.6f}, "
                f"candidate {b:.6f}",
            )


def _compare_machines(m_ref, m_opt, optimization: str) -> None:
    """Optimization soundness at the interpreter level."""
    names = set(m_ref.registers) | set(m_opt.registers)
    for name in sorted(names):
        a = m_ref.registers.get(name, 0)
        b = m_opt.registers.get(name, 0)
        if name in m_ref.registers and name in m_opt.registers:
            if a != b:
                raise OracleFailure(
                    f"opt-vs-interp[{optimization}]",
                    f"register {name!r}: reference={a} {optimization}={b}",
                )
        elif (a if name in m_ref.registers else b) != 0:
            raise OracleFailure(
                f"opt-vs-interp[{optimization}]",
                f"register {name!r} exclusive to one side is nonzero",
            )
    if m_ref.memory != m_opt.memory:
        raise OracleFailure(
            f"opt-vs-interp[{optimization}]",
            f"heap differs: reference={m_ref.memory} {optimization}={m_opt.memory}",
        )


def _check_circuit_point(
    cp: CompiledProgram,
    inverse,
    machine,
    inputs: Dict[str, int],
    memory: List[int],
    optimization: str,
    cfg: OracleConfig,
) -> Tuple[int, int]:
    """Circuit vs. interpreter on one basis input; returns (in, out) states."""
    circuit = cp.circuit
    circuit_inputs = dict(inputs)
    if cp.cell_bits:
        for addr in range(1, cp.config.heap_cells + 1):
            circuit_inputs[f"mem[{addr}]"] = memory[addr]
    packed = classical_sim.pack(circuit_inputs, circuit)
    final = classical_sim.run(circuit, packed)
    out = classical_sim.unpack(final, circuit)
    for name, reg in circuit.registers.items():
        if name.startswith("mem["):
            expected = machine.memory[int(name[4:-1])]
        else:
            expected = machine.registers.get(name, 0)
        if out[name] != expected:
            raise OracleFailure(
                f"circuit-vs-interp[{optimization}]",
                f"register {name!r}: circuit={out[name]} interp={expected} "
                f"on inputs {inputs} memory {memory}",
            )
    covered = 0
    for reg in circuit.registers.values():
        covered |= ((1 << reg.width) - 1) << reg.offset
    if final & ~covered:
        raise OracleFailure(
            f"ancilla-nonzero[{optimization}]",
            f"qubits outside the register map end nonzero: state {final:#x} "
            f"on inputs {inputs} memory {memory}",
        )
    # interpreter-side cleanliness: names whose registers were freed must
    # have been XORed back to zero, else the circuit's register reuse and
    # the interpreter's flat namespace could legally diverge (a generator
    # discipline violation, not a compiler bug).
    for name, value in machine.registers.items():
        if value != 0 and name not in circuit.registers:
            raise OracleFailure(
                "interp-unclean",
                f"dead register {name!r} holds {value}; the generated "
                "program does not uncompute cleanly",
            )
    if classical_sim.run(inverse, final) != packed:
        raise OracleFailure(
            f"circuit-inverse[{optimization}]",
            f"inverse circuit does not restore the input state {packed:#x}",
        )
    if cfg.check_statevector:
        amps = _stage(
            f"statevector-sparse[{optimization}]",
            sparse_run,
            circuit,
            packed,
            support_cap=cfg.sparse_support_cap,
        )
        if not sparse_is_basis(amps, final):
            raise OracleFailure(
                f"statevector-sparse[{optimization}]",
                f"sparse statevector disagrees with classical result {final:#x}",
            )
        if circuit.num_qubits <= cfg.dense_max_qubits:
            state = dense_run(circuit, basis_state(circuit.num_qubits, packed))
            if not states_equal(state, basis_state(circuit.num_qubits, final)):
                raise OracleFailure(
                    f"statevector-dense[{optimization}]",
                    f"dense statevector disagrees with classical result {final:#x}",
                )
    return packed, final


def _check_optimizers(
    cp: CompiledProgram,
    basis_pairs: List[Tuple[int, Any]],
    cfg: OracleConfig,
    stats: Dict[str, Any],
    superposed: bool = False,
) -> None:
    """T-count and semantics oracles for every circuit-optimizer baseline.

    ``basis_pairs`` holds ``(input state, expectation)`` pairs; the
    expectation is the final basis state for classical programs, or the
    canonical branch-amplitude dict of the MCX-level reference circuit for
    superposition programs.
    """
    cache = DecompositionCache()
    reference = _stage("decompose", cache.clifford_t, cp.circuit)
    reference_t = reference.t_count()
    stats["t_clifford"] = reference_t
    if cfg.optimizer_t_cap is not None and reference_t > cfg.optimizer_t_cap:
        # size-tiered effort: the optimizer passes are linear in the
        # expanded gate count, so oversized programs trade the whole
        # budget for rewrite coverage small programs already provide
        stats["optimizers_skipped"] = reference_t
        return
    sim_pairs = (
        basis_pairs
        if reference_t <= cfg.optimizer_full_sim_t_cap
        else basis_pairs[:1]
    )
    stats["optimizer_inputs"] = len(sim_pairs)
    layout = _register_layout(cp.circuit)
    for name in cfg.optimizers:
        result = _stage(
            f"optimizer[{name}]", make_pass(name).run, cp.circuit, cache
        )
        t_count = result.t_count()
        if t_count > reference_t:
            raise OracleFailure(
                f"tcount-increase[{name}]",
                f"optimizer raised T-count {reference_t} -> {t_count}",
            )
        if not result.is_clifford_t():
            raise OracleFailure(
                f"optimizer[{name}]", "result is not a Clifford+T circuit"
            )
        stats[f"t_{name}"] = t_count
        if not cfg.check_statevector:
            continue
        for packed, expected in sim_pairs:
            try:
                amps = sparse_run(
                    result, packed, support_cap=cfg.sparse_support_cap
                )
            except SimulationError:
                # support explosion: fall back to dense when feasible
                if result.num_qubits <= cfg.dense_max_qubits:
                    state = dense_run(
                        result,
                        basis_state(result.num_qubits, packed),
                    )
                    amps = {
                        idx: amp
                        for idx, amp in enumerate(state)
                        if abs(amp) > cfg.amp_tol * 1e-2
                    }
                else:
                    stats[f"skipped_{name}"] = stats.get(f"skipped_{name}", 0) + 1
                    continue
            if superposed:
                oracle = f"optimizer-amps[{name}]"
                canon = _canonical_branches(
                    amps, layout, None, oracle, cfg.amp_tol * 1e-2
                )
                _compare_branches(expected, canon, oracle, cfg.amp_tol)
            elif not sparse_is_basis(amps, expected):
                raise OracleFailure(
                    f"optimizer-semantics[{name}]",
                    f"basis state {packed:#x} no longer maps to {expected:#x}",
                )


def _check_superposition_point(
    compiles: Dict[str, CompiledProgram],
    inverses: Dict[str, Any],
    inputs: Dict[str, int],
    memory: List[int],
    cfg: OracleConfig,
    ref: str,
) -> Tuple[int, Dict[BranchKey, complex]]:
    """The amplitude oracles on one basis input.

    Every optimization level's circuit runs through the sparse statevector;
    the resulting amplitude dictionaries — canonicalized over the shared
    named registers, ancilla-clean per branch, global phase fixed — must
    agree with the reference level, and each circuit's inverse must map the
    final state back to the input basis state.  Returns the reference
    circuit's (input state, canonical branches) pair for the optimizer
    baselines.
    """
    raw: Dict[str, SparseState] = {}
    packed_by_level: Dict[str, int] = {}
    for optimization, cp in compiles.items():
        circuit = cp.circuit
        circuit_inputs = dict(inputs)
        if cp.cell_bits:
            for addr in range(1, cp.config.heap_cells + 1):
                circuit_inputs[f"mem[{addr}]"] = memory[addr]
        packed = classical_sim.pack(circuit_inputs, circuit)
        amps = _stage(
            f"statevector-sparse[{optimization}]",
            sparse_run,
            circuit,
            packed,
            support_cap=cfg.sparse_support_cap,
        )
        restored = _stage(
            f"circuit-inverse[{optimization}]",
            sparse_run,
            inverses[optimization],
            amps,
            support_cap=cfg.sparse_support_cap,
        )
        if not sparse_is_basis(restored, packed, cfg.amp_tol):
            raise OracleFailure(
                f"circuit-inverse[{optimization}]",
                f"inverse circuit does not restore the input state {packed:#x} "
                f"on inputs {inputs} memory {memory}",
            )
        if circuit.num_qubits <= cfg.dense_max_qubits:
            dense = dense_run(
                circuit, basis_state(circuit.num_qubits, packed)
            )
            if not states_equal(
                dense, sparse_to_dense(amps, circuit.num_qubits), tol=cfg.amp_tol
            ):
                raise OracleFailure(
                    f"statevector-dense[{optimization}]",
                    "dense statevector disagrees with the sparse amplitudes",
                )
        raw[optimization] = amps
        packed_by_level[optimization] = packed

    ref_circuit = compiles[ref].circuit
    ref_layout = _register_layout(ref_circuit)
    ref_names = frozenset(ref_circuit.registers)
    reference_full = _canonical_branches(
        raw[ref], ref_layout, None, ref, cfg.amp_tol * 1e-2
    )
    for optimization in (o for o in compiles if o != ref):
        oracle = f"amps-vs-ref[{optimization}]"
        circuit = compiles[optimization].circuit
        shared = ref_names & frozenset(circuit.registers)
        a = _canonical_branches(
            raw[ref],
            ref_layout,
            shared,
            oracle,
            cfg.amp_tol * 1e-2,
            packed=packed_by_level[ref],
        )
        b = _canonical_branches(
            raw[optimization],
            _register_layout(circuit),
            shared,
            oracle,
            cfg.amp_tol * 1e-2,
            packed=packed_by_level[optimization],
        )
        _compare_branches(a, b, oracle, cfg.amp_tol)
    return packed_by_level[ref], reference_full


def _check_static_analysis(
    program: Program,
    entry: str,
    size: Optional[int],
    compiles: Dict[str, CompiledProgram],
    ref: str,
    stats: Dict[str, Any],
) -> None:
    """The static-analysis oracles (see :class:`OracleConfig`), on every
    compiled level: presets and raw specs, bisection prefixes included."""
    from ..analysis import lint_core_stmt, static_bounds

    baseline_errors: Optional[Tuple[str, ...]] = None
    for optimization, cp in compiles.items():
        mcx, t = _stage(
            f"static-bound[{optimization}]",
            static_bounds,
            program,
            entry,
            size,
            optimization,
            cp.config,
        )
        if (mcx, t) != (cp.mcx_complexity(), cp.t_complexity()):
            raise OracleFailure(
                f"static-bound[{optimization}]",
                f"static analysis bound ({mcx}, {t}) != compiled "
                f"circuit ({cp.mcx_complexity()}, {cp.t_complexity()})",
            )
        diags = _stage(
            f"lint-stability[{optimization}]", lint_core_stmt, cp.core
        )
        errors = tuple(
            d.code for d in diags if d.severity == "error"
        )
        if optimization == ref:
            baseline_errors = errors
            stats["lint_errors"] = len(errors)
        elif not baseline_errors and errors:
            raise OracleFailure(
                f"lint-stability[{optimization}]",
                f"error-severity findings {sorted(set(errors))} appeared "
                f"only after the {optimization!r} rewrite",
            )


def _run_oracles_impl(
    program: Program,
    entry: str = "main",
    size: Optional[int] = None,
    cfg: OracleConfig = OracleConfig(),
    input_seed: int = 0,
    shapes: Sequence[HeapShapeInfo] = (),
) -> Dict[str, Any]:
    stats: Dict[str, Any] = {}

    source = render_program(program)
    reparsed = _stage("render-roundtrip", parse_program, source)
    if reparsed != program:
        raise OracleFailure("render-roundtrip", "re-parsed AST differs")

    lowered = _stage("lower", lower_entry, program, entry, size, cfg.compiler)
    stmt = lowered.stmt
    _stage("typecheck", check_program, stmt, lowered.table, lowered.param_types)

    if reverse(reverse(stmt)) != stmt:
        raise OracleFailure("reverse-involution", "I[I[s]] differs from s")

    superposed = any(isinstance(node, Hadamard) for node in stmt.walk())
    stats["superposed"] = superposed

    # the first optimization level is the reference the others are compared
    # against (and the one the circuit-optimizer baselines run on)
    ref = cfg.optimizations[0]
    compiles: Dict[str, CompiledProgram] = {}
    inverses: Dict[str, Any] = {}
    for optimization in cfg.optimizations:
        compiles[optimization] = _stage(
            f"compile[{optimization}]",
            compile_core,
            stmt,
            lowered.table,
            lowered.param_types,
            optimization=optimization,
            return_var=lowered.return_var,
            verify=cfg.verify_passes,
        )
        inverses[optimization] = compiles[optimization].circuit.inverse()
    stats["qubits"] = compiles[ref].num_qubits()
    stats["gates"] = len(compiles[ref].circuit.gates)
    stats["t"] = compiles[ref].t_complexity()

    for optimization, cp in compiles.items():
        mcx, t = _stage(
            f"cost-exact[{optimization}]",
            exact_counts,
            cp.core,
            cp.table,
            cp.var_types,
            cp.cell_bits,
        )
        if (mcx, t) != (cp.mcx_complexity(), cp.t_complexity()):
            raise OracleFailure(
                f"cost-exact[{optimization}]",
                f"model ({mcx}, {t}) != circuit "
                f"({cp.mcx_complexity()}, {cp.t_complexity()})",
            )

    if cfg.check_static_analysis:
        _check_static_analysis(program, entry, size, compiles, ref, stats)

    table = lowered.table
    widths = {
        name: table.width(ty) for name, ty in lowered.param_types.items()
    }
    cell_bits = min(cp.cell_bits for cp in compiles.values())
    rng = random.Random(input_seed)
    plan = _InputPlan(rng, widths, shapes, cfg.compiler, cell_bits)
    basis_pairs: List[Tuple[int, Any]] = []
    max_support = 0
    for _ in range(cfg.n_inputs):
        inputs, memory = plan.draw()

        if superposed:
            packed, reference_branches = _check_superposition_point(
                compiles, inverses, inputs, memory, cfg, ref
            )
            max_support = max(max_support, len(reference_branches))
            basis_pairs.append((packed, reference_branches))
            continue

        machines = {}
        for optimization, cp in compiles.items():
            # full var_types + default_zero mirror the circuit exactly:
            # optimizer rewrites may soundly read registers (as |0..0>)
            # on paths where the source program never bound them
            machines[optimization] = _stage(
                f"interp[{optimization}]",
                run_program,
                cp.core,
                table,
                dict(inputs),
                dict(cp.var_types),
                memory=list(memory),
                default_zero=True,
            )
        for optimization in cfg.optimizations[1:]:
            _compare_machines(machines[ref], machines[optimization], optimization)

        round_trip = _stage(
            "reverse-roundtrip",
            run_program,
            seq(stmt, reverse(stmt)),
            table,
            dict(inputs),
            dict(compiles[ref].var_types),
            memory=list(memory),
            default_zero=True,
        )
        for name, value in round_trip.registers.items():
            expected = inputs.get(name, 0)
            if value != expected:
                raise OracleFailure(
                    "reverse-roundtrip",
                    f"register {name!r} is {value}, expected {expected} "
                    f"after s; I[s] on inputs {inputs}",
                )
        if round_trip.memory != memory:
            raise OracleFailure(
                "reverse-roundtrip", "heap not restored after s; I[s]"
            )

        for optimization, cp in compiles.items():
            packed, final = _check_circuit_point(
                cp,
                inverses[optimization],
                machines[optimization],
                inputs,
                memory,
                optimization,
                cfg,
            )
            if optimization == ref:
                basis_pairs.append((packed, final))

    if superposed:
        stats["max_branches"] = max_support
    if cfg.check_optimizers:
        _check_optimizers(
            compiles[ref], basis_pairs, cfg, stats, superposed=superposed
        )
    return stats


#: a level tag in an oracle signature, e.g. ``opt-vs-interp[spire]``
_LEVEL_TAG = re.compile(r"\[([^\[\]]+)\]")


def _bisect_offending_pass(
    program: Program,
    entry: str,
    size: Optional[int],
    cfg: OracleConfig,
    input_seed: int,
    shapes: Sequence[HeapShapeInfo],
    failure: OracleFailure,
) -> Optional[str]:
    """The first pipeline pass whose prefix reproduces ``failure``.

    Re-runs the full oracle set against the reference level for growing
    IR-pass prefixes of the failing level's pipeline; the last pass of the
    first failing prefix introduced the defect.  Returns ``None`` when the
    failure is not attributable to a pipeline level (no tag, the reference
    level itself, a single-stage pipeline that does not reproduce, …).
    """
    match = _LEVEL_TAG.search(failure.oracle)
    if match is None:
        return None
    tag = match.group(1)
    levels = cfg.optimizations
    if tag not in levels or tag == levels[0]:
        return None
    try:
        pipeline = resolve_pipeline(tag)
    except PassError:
        return None
    if not pipeline.ir_passes:
        return None
    for prefix in pipeline.ir_prefixes():
        sub_cfg = replace(
            cfg,
            optimizations=(levels[0], prefix.spec()),
            check_optimizers=False,
            verify_passes=False,
            bisect=False,
        )
        try:
            _run_oracles_impl(
                program, entry, size, sub_cfg, input_seed, shapes
            )
        except OracleFailure:
            return prefix.ir_passes[-1].name
        except Exception:  # a prefix that cannot even run is inconclusive
            return None
    return None


def run_oracles(
    program: Program,
    entry: str = "main",
    size: Optional[int] = None,
    cfg: OracleConfig = OracleConfig(),
    input_seed: int = 0,
    shapes: Sequence[HeapShapeInfo] = (),
) -> Dict[str, Any]:
    """Run every oracle on one surface program; returns summary stats.

    ``shapes`` describes well-formed heap structures to lay out in the
    initial memory image (see :class:`_InputPlan`).  Programs containing
    ``H`` statements are checked by the amplitude oracles instead of the
    classical interpreter/simulator path.  Raises :class:`OracleFailure`
    on the first violated invariant; failures tagged with a multi-pass
    optimization level are bisected to the first offending pass, appended
    to the signature as ``@pass:<name>``.
    """
    try:
        return _run_oracles_impl(program, entry, size, cfg, input_seed, shapes)
    except OracleFailure as failure:
        if cfg.bisect and "@pass:" not in failure.oracle:
            offending = _bisect_offending_pass(
                program, entry, size, cfg, input_seed, shapes, failure
            )
            if offending is not None:
                raise OracleFailure(
                    f"{failure.oracle}@pass:{offending}", failure.message
                ) from failure
        raise


def check_generated(
    seed: int,
    gen: GenConfig = GenConfig(),
    cfg: OracleConfig = OracleConfig(),
) -> OracleReport:
    """Generate the workload of one seed and run every oracle on it."""
    cfg = oracle_config_for(gen, cfg)
    try:
        workload = generate_workload(seed, gen, cfg.compiler)
    except Exception as exc:  # generator must never crash
        return OracleReport(
            seed, False, "crash[generate]", f"{type(exc).__name__}: {exc}",
            gen=gen,
        )
    source = render_program(workload.program)
    try:
        stats = run_oracles(
            workload.program,
            "main",
            None,
            cfg,
            input_seed=seed,
            shapes=workload.shapes,
        )
    except OracleFailure as failure:
        return OracleReport(
            seed, False, failure.oracle, failure.message, source, gen=gen
        )
    return OracleReport(seed, True, source=source, stats=stats, gen=gen)
