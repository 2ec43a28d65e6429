"""Exact cost model via control profiles.

The paper's Theorems 5.1 and 5.2 state that the cost model equals the gate
counts of the compiled circuit "up to choices for the constants".  This
module realizes that equality *exactly*: for every primitive statement it
computes the statement's **control profile** — the histogram of emitted
gates by (kind, number of controls) — by running the very same instruction
lowering and gate expansion the compiler uses.  Composite statements then
follow the structure of Section 5:

* ``profile(s1; s2) = profile(s1) + profile(s2)``
* ``profile(if x { s }) = shift(profile(s), +1)`` — the uniform control rule
* ``profile(with {s1} do {s2}) = 2·profile(s1) + profile(s2)``

``t_complexity`` and ``mcx_complexity`` of a profile then reproduce the
compiled circuit's counts, which the test suite asserts as equalities on
benchmarks and on randomly generated programs.

A primitive's profile depends only on its *shape* (the operand widths and
constants :meth:`ExactCostModel._key` names) and on the architecture, so
profiles live, with their MCX and T totals, in one bounded process-wide
table: each shape is lowered once per process.  A full table starts over,
and :func:`~repro.circuit.gates.reset_shared_gates` clears it.
"""

from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, NamedTuple, Tuple

from ..circuit.gates import GateKind, clear_with_shared_gates
from ..compiler.lower_gates import InstructionExpander, MemoryLayout, ScratchPool
from ..compiler.lower_ir import IRLowering
from ..errors import CostModelError
from ..ir.core import (
    Assign,
    AtomE,
    BinOp,
    Hadamard,
    If,
    MemSwap,
    Pair,
    Proj,
    Seq,
    Skip,
    Stmt,
    Swap,
    UnAssign,
    UnOp,
    Var,
    With,
    encode_value,
    free_vars,
)
from ..types import Type, TypeTable
from .constants import t_ch, t_mcx


@dataclass
class ControlProfile:
    """Histogram of gates by (kind, control count)."""

    mcx: Counter = field(default_factory=Counter)  # controls -> count
    h: Counter = field(default_factory=Counter)  # controls -> count

    def __add__(self, other: "ControlProfile") -> "ControlProfile":
        return ControlProfile(self.mcx + other.mcx, self.h + other.h)

    def scaled(self, factor: int) -> "ControlProfile":
        return ControlProfile(
            Counter({c: n * factor for c, n in self.mcx.items()}),
            Counter({c: n * factor for c, n in self.h.items()}),
        )

    def shifted(self, extra_controls: int) -> "ControlProfile":
        """The profile after adding ``extra_controls`` controls to every gate."""
        return ControlProfile(
            Counter({c + extra_controls: n for c, n in self.mcx.items()}),
            Counter({c + extra_controls: n for c, n in self.h.items()}),
        )

    # --------------------------------------------------------------- metrics
    def mcx_complexity(self) -> int:
        """Total gate count in the idealized gate set (Theorem 5.1)."""
        return sum(self.mcx.values()) + sum(self.h.values())

    def t_complexity(self) -> int:
        """Total T gates under the Figure 5/6 decomposition (Theorem 5.2)."""
        total = sum(t_mcx(c) * n for c, n in self.mcx.items())
        total += sum(t_ch(c) * n for c, n in self.h.items())
        return total


class Priced(NamedTuple):
    """A primitive statement's control profile with its MCX and T totals."""

    profile: ControlProfile
    mcx: int
    t: int


#: Bound on the process-wide profile table.  Every Table 1 program at depths
#: 1-4, under ``none`` and ``spire``, prices 58 shapes at one configuration.
PROFILES_MAX = 1 << 10

#: (architecture, shape) -> the shape's priced profile
_PROFILES: Dict[tuple, Priced] = {}

_PROFILES_LOCK = threading.Lock()

clear_with_shared_gates(_PROFILES.clear)


class ExactCostModel:
    """Computes control profiles for core IR statements.

    A primitive's profile comes from lowering one statement of its shape in
    isolation with the production code path, once per process (see the
    module docstring), so analyzing an inlined program of thousands of
    repeated primitives stays fast.
    """

    def __init__(
        self,
        table: TypeTable,
        var_types: Dict[str, Type],
        cell_bits: int = 0,
    ) -> None:
        self.table = table
        self.var_types = var_types
        self.cell_bits = cell_bits
        config = table.config
        self._arch = (config.word_width, config.addr_width, config.heap_cells, cell_bits)
        self._widths: Dict[str, int] = {}

    # ------------------------------------------------------------- interface
    def profile(self, stmt: Stmt) -> ControlProfile:
        if isinstance(stmt, Skip):
            return ControlProfile()
        if isinstance(stmt, Seq):
            result = ControlProfile()
            for sub in stmt.stmts:
                result = result + self.profile(sub)
            return result
        if isinstance(stmt, If):
            return self.profile(stmt.body).shifted(1)
        if isinstance(stmt, With):
            return self.profile(stmt.setup).scaled(2) + self.profile(stmt.body)
        return self.priced(stmt).profile

    def t_complexity(self, stmt: Stmt) -> int:
        return self.profile(stmt).t_complexity()

    # ------------------------------------------------------------ primitives
    def priced(self, stmt: Stmt) -> Priced:
        """The profile and totals of a primitive statement, from the
        process-wide table; the first statement of its shape lowers it."""
        key = (self._arch, self._key(stmt))
        hit = _PROFILES.get(key)
        if hit is not None:
            return hit
        profile = self._lower_primitive(stmt)
        priced = Priced(profile, profile.mcx_complexity(), profile.t_complexity())
        with _PROFILES_LOCK:
            if len(_PROFILES) >= PROFILES_MAX:
                _PROFILES.clear()
            return _PROFILES.setdefault(key, priced)

    def _width(self, name: str) -> int:
        """Width of a variable, read from its type once per model."""
        if name not in self._widths:
            if name not in self.var_types:
                raise CostModelError(f"no type for variable {name!r}")
            self._widths[name] = self.table.width(self.var_types[name])
        return self._widths[name]

    def _atom_key(self, atom) -> tuple:
        if isinstance(atom, Var):
            return ("var", self._width(atom.name))
        value = atom.value
        return ("lit", encode_value(value, self.table), self.table.width(value.type_of()))

    def _key(self, stmt: Stmt) -> tuple:
        if isinstance(stmt, (Assign, UnAssign)):
            expr = stmt.expr
            if isinstance(expr, AtomE):
                ekey: tuple = ("atom", self._atom_key(expr.atom))
            elif isinstance(expr, Pair):
                ekey = ("pair", self._atom_key(expr.first), self._atom_key(expr.second))
            elif isinstance(expr, Proj):
                atom = expr.atom
                ty = self.var_types[atom.name] if isinstance(atom, Var) else atom.value.type_of()
                ekey = ("proj", expr.index, self.table.tuple_layout(ty)[1], self._atom_key(atom))
            elif isinstance(expr, UnOp):
                ekey = ("unop", expr.op, self._atom_key(expr.atom))
            elif isinstance(expr, BinOp):
                left, right = self._atom_key(expr.left), self._atom_key(expr.right)
                same = isinstance(expr.left, Var) and expr.left == expr.right
                ekey = ("binop", expr.op, left, right, same)
            else:  # pragma: no cover
                raise CostModelError(f"unknown expression {expr!r}")
            return ("assign", self._width(stmt.name), ekey)
        if isinstance(stmt, Swap):
            return ("swap", self._width(stmt.left))
        if isinstance(stmt, MemSwap):
            return ("memswap", self._width(stmt.pointer), self._width(stmt.value))
        if isinstance(stmt, Hadamard):
            return ("hadamard",)
        raise CostModelError(f"not a primitive statement: {stmt!r}")

    def _lower_primitive(self, stmt: Stmt) -> ControlProfile:
        memory = (
            MemoryLayout(self.table.config.heap_cells, self.cell_bits, base=0)
            if self.cell_bits and self.table.config.heap_cells
            else None
        )
        engine = IRLowering(
            self.table, self.var_types, base_offset=memory.qubits if memory else 0
        )
        for name in sorted(free_vars(stmt)):
            engine.alloc.declare(name, engine.width_of(name))
        engine.lower(stmt)
        scratch = ScratchPool(engine.alloc.region_end)
        expander = InstructionExpander(scratch, memory, self.table.config.word_width)
        profile = ControlProfile()
        for instr in engine.instrs:
            for gate in expander.expand(instr):
                if gate.kind is GateKind.MCX:
                    profile.mcx[len(gate.controls)] += 1
                elif gate.kind is GateKind.H:
                    profile.h[len(gate.controls)] += 1
                else:  # pragma: no cover - expander emits only MCX/H
                    raise CostModelError(f"unexpected gate {gate}")
        return profile


def exact_counts(
    stmt: Stmt,
    table: TypeTable,
    var_types: Dict[str, Type],
    cell_bits: int = 0,
) -> Tuple[int, int]:
    """(MCX-complexity, T-complexity) of a statement, by the exact model."""
    model = ExactCostModel(table, var_types, cell_bits)
    profile = model.profile(stmt)
    return profile.mcx_complexity(), profile.t_complexity()
