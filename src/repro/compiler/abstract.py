"""The abstract circuit: Tower's third compilation stage (Section 7).

"The compiler lowers the core IR to an abstract circuit that is analogous to
classical assembly, with the abstractions of word-sized registers;
arithmetic, logical, memory, and data movement instructions; and
instructions controlled by registers."

Each instruction operates on :class:`~repro.circuit.circuit.Register`
operands (or integer constants) and carries a tuple of **control qubits**
accumulated from the enclosing quantum ``if`` statements.  Gate lowering
(:mod:`repro.compiler.lower_gates`) instantiates every instruction as a
sequence of MCX/H gates, appending the instruction's controls to every
emitted gate — the uniform rule that makes control flow expensive under
error correction (Section 3.3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

from ..circuit.circuit import Register

#: An instruction operand: a register or a constant (interpreted at the
#: width the instruction requires).
Operand = Union[Register, int]


def subregister(reg: Register, offset: int, width: int) -> Register:
    """A view of ``width`` bits of ``reg`` starting at bit ``offset``."""
    if offset < 0 or offset + width > reg.width:
        raise ValueError(f"slice [{offset}:{offset + width}] outside {reg}")
    return Register(f"{reg.name}[{offset}:{offset + width}]", reg.offset + offset, width)


@dataclass(frozen=True)
class Instr:
    """Base class: every instruction carries its control qubits."""

    controls: Tuple[int, ...]


@dataclass(frozen=True)
class XorConst(Instr):
    """``dst ^= value``."""

    dst: Register
    value: int


@dataclass(frozen=True)
class XorReg(Instr):
    """``dst ^= src`` (equal widths)."""

    dst: Register
    src: Register


@dataclass(frozen=True)
class NotBit(Instr):
    """``dst ^= NOT src`` on single bits."""

    dst: Register
    src: Register


@dataclass(frozen=True)
class AndBit(Instr):
    """``dst ^= a AND b`` on single bits."""

    dst: Register
    a: Operand
    b: Operand


@dataclass(frozen=True)
class OrBit(Instr):
    """``dst ^= a OR b`` on single bits."""

    dst: Register
    a: Operand
    b: Operand


@dataclass(frozen=True)
class EqConst(Instr):
    """``dst ^= (src == value)`` into a single bit."""

    dst: Register
    src: Register
    value: int
    negate: bool = False  # True computes !=


@dataclass(frozen=True)
class EqReg(Instr):
    """``dst ^= (a == b)`` into a single bit."""

    dst: Register
    a: Register
    b: Register
    negate: bool = False  # True computes !=


@dataclass(frozen=True)
class LtInto(Instr):
    """``dst ^= (a < b)`` into a single bit (unsigned)."""

    dst: Register
    a: Operand
    b: Operand


@dataclass(frozen=True)
class AddInto(Instr):
    """``dst ^= (a + b) mod 2^w`` (w = dst width)."""

    dst: Register
    a: Operand
    b: Operand


@dataclass(frozen=True)
class SubInto(Instr):
    """``dst ^= (a - b) mod 2^w``."""

    dst: Register
    a: Operand
    b: Operand


@dataclass(frozen=True)
class MulInto(Instr):
    """``dst ^= (a * b) mod 2^w``."""

    dst: Register
    a: Operand
    b: Operand


@dataclass(frozen=True)
class SwapReg(Instr):
    """Exchange two equal-width registers."""

    a: Register
    b: Register


@dataclass(frozen=True)
class MemSwapInstr(Instr):
    """Swap ``data`` with the heap cell addressed by ``addr`` (0 = no-op)."""

    addr: Register
    data: Register


@dataclass(frozen=True)
class HadamardInstr(Instr):
    """Hadamard on a single-bit register."""

    bit: Register
