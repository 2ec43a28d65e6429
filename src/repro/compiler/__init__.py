"""The Tower/Spire compiler: core IR to MCX-level quantum circuits."""

from .abstract import Instr, subregister
from .lower_gates import InstructionExpander, MemoryLayout, ScratchPool, expand_program
from .lower_ir import AbstractProgram, IRLowering, lower_to_abstract
from .pipeline import (
    CompiledProgram,
    compile_core,
    compile_program,
    compile_source,
    infer_cell_bits,
)
from .registers import RegisterAllocator

__all__ = [
    "Instr",
    "subregister",
    "InstructionExpander",
    "MemoryLayout",
    "ScratchPool",
    "expand_program",
    "AbstractProgram",
    "IRLowering",
    "lower_to_abstract",
    "CompiledProgram",
    "compile_core",
    "compile_program",
    "compile_source",
    "infer_cell_bits",
    "RegisterAllocator",
]
