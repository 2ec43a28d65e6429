"""Instruction-semantics tests: every abstract instruction, executed as gates.

For each instruction the expanded gate sequence is run through the classical
simulator on exhaustive (small-width) operand values and compared against
plain Python arithmetic — the gold-standard check of the gate lowering.
Scratch qubits must always return to zero.

Whole programs lower as their instructions expanded one by one, afresh:
``expand_program`` appends a repeated memory swap, equality or comparison
by the rows of its first expansion, and must build the circuit that the
per-instruction oracle builds.
"""

import itertools
from pathlib import Path

import pytest

from repro.benchsuite.programs import SOURCES, get_entry, is_unsized
from repro.circuit.circuit import Circuit, Register
from repro.circuit import classical_sim
from repro.compiler import compile_program, compile_source
from repro.compiler.lower_gates import expand_program
from repro.compiler.lower_ir import lower_to_abstract
from repro.config import TINY, CompilerConfig
from repro.fuzz.corpus import load_corpus, load_seed_manifest
from repro.fuzz.generator import default_fuzz_config, generate_program
from repro.fuzz.oracles import OracleConfig
from repro.lang.parser import parse_program
from repro.compiler.abstract import (
    AddInto,
    AndBit,
    EqConst,
    EqReg,
    LtInto,
    MemSwapInstr,
    MulInto,
    NotBit,
    OrBit,
    SubInto,
    SwapReg,
    XorConst,
    XorReg,
)
from repro.compiler.lower_gates import InstructionExpander, MemoryLayout, ScratchPool

W = 3  # operand width for exhaustive tests
MASK = (1 << W) - 1


def execute(instr, values, layout, word_width=W, memory=None):
    """Expand one instruction and run it classically.

    ``layout``: dict name -> (offset, width); ``values``: name -> int.
    Returns final values plus ``"%scratch_dirty"`` flag.
    """
    top = max(off + width for off, width in layout.values())
    scratch = ScratchPool(top)
    expander = InstructionExpander(scratch, memory, word_width)
    gates = expander.expand(instr)
    state = 0
    for name, value in values.items():
        off, width = layout[name]
        state |= (value & ((1 << width) - 1)) << off
    circ = Circuit(max(scratch.high_water, top), gates)
    final = classical_sim.run(circ, state)
    out = {}
    for name, (off, width) in layout.items():
        out[name] = (final >> off) & ((1 << width) - 1)
    scratch_bits = final >> top
    out["%scratch_dirty"] = scratch_bits != 0
    return out


def reg(name, layout):
    off, width = layout[name]
    return Register(name, off, width)


LAYOUT3 = {"d": (0, W), "a": (W, W), "b": (2 * W, W)}
LAYOUT_BIT = {"d": (0, 1), "a": (1, 1), "b": (2, 1)}


class TestArithmetic:
    @pytest.mark.parametrize("a,b", list(itertools.product(range(8), repeat=2)))
    def test_add(self, a, b):
        instr = AddInto((), reg("d", LAYOUT3), reg("a", LAYOUT3), reg("b", LAYOUT3))
        out = execute(instr, {"a": a, "b": b, "d": 5}, LAYOUT3)
        assert out["d"] == 5 ^ ((a + b) & MASK)
        assert not out["%scratch_dirty"]
        assert out["a"] == a and out["b"] == b

    @pytest.mark.parametrize("a,b", list(itertools.product(range(8), repeat=2)))
    def test_sub(self, a, b):
        instr = SubInto((), reg("d", LAYOUT3), reg("a", LAYOUT3), reg("b", LAYOUT3))
        out = execute(instr, {"a": a, "b": b, "d": 0}, LAYOUT3)
        assert out["d"] == (a - b) & MASK
        assert not out["%scratch_dirty"]

    @pytest.mark.parametrize("a,b", list(itertools.product(range(8), repeat=2)))
    def test_mul(self, a, b):
        instr = MulInto((), reg("d", LAYOUT3), reg("a", LAYOUT3), reg("b", LAYOUT3))
        out = execute(instr, {"a": a, "b": b, "d": 0}, LAYOUT3)
        assert out["d"] == (a * b) & MASK
        assert not out["%scratch_dirty"]

    @pytest.mark.parametrize("a", range(8))
    @pytest.mark.parametrize("const", [0, 1, 5, 7])
    def test_add_const(self, a, const):
        layout = {"d": (0, W), "a": (W, W)}
        instr = AddInto((), reg("d", layout), reg("a", layout), const)
        out = execute(instr, {"a": a, "d": 0}, layout)
        assert out["d"] == (a + const) & MASK

    @pytest.mark.parametrize("a", range(8))
    def test_sub_const(self, a):
        layout = {"d": (0, W), "a": (W, W)}
        instr = SubInto((), reg("d", layout), reg("a", layout), 3)
        out = execute(instr, {"a": a, "d": 0}, layout)
        assert out["d"] == (a - 3) & MASK

    @pytest.mark.parametrize("a", range(8))
    def test_const_minus_reg(self, a):
        layout = {"d": (0, W), "a": (W, W)}
        instr = SubInto((), reg("d", layout), 6, reg("a", layout))
        out = execute(instr, {"a": a, "d": 0}, layout)
        assert out["d"] == (6 - a) & MASK

    @pytest.mark.parametrize("a", range(8))
    def test_mul_const(self, a):
        layout = {"d": (0, W), "a": (W, W)}
        instr = MulInto((), reg("d", layout), reg("a", layout), 5)
        out = execute(instr, {"a": a, "d": 0}, layout)
        assert out["d"] == (a * 5) & MASK
        assert not out["%scratch_dirty"]

    @pytest.mark.parametrize("a", range(8))
    def test_add_self(self, a):
        layout = {"d": (0, W), "a": (W, W)}
        r = reg("a", layout)
        instr = AddInto((), reg("d", layout), r, r)
        out = execute(instr, {"a": a, "d": 0}, layout)
        assert out["d"] == (2 * a) & MASK

    @pytest.mark.parametrize("a", range(8))
    def test_mul_self(self, a):
        layout = {"d": (0, W), "a": (W, W)}
        r = reg("a", layout)
        instr = MulInto((), reg("d", layout), r, r)
        out = execute(instr, {"a": a, "d": 0}, layout)
        assert out["d"] == (a * a) & MASK
        assert not out["%scratch_dirty"]


class TestComparisons:
    @pytest.mark.parametrize("a,b", list(itertools.product(range(8), repeat=2)))
    def test_lt(self, a, b):
        layout = {"d": (0, 1), "a": (1, W), "b": (1 + W, W)}
        instr = LtInto((), reg("d", layout), reg("a", layout), reg("b", layout))
        out = execute(instr, {"a": a, "b": b, "d": 0}, layout)
        assert out["d"] == int(a < b)
        assert not out["%scratch_dirty"]

    @pytest.mark.parametrize("a,b", list(itertools.product(range(8), repeat=2)))
    def test_eq_reg(self, a, b):
        layout = {"d": (0, 1), "a": (1, W), "b": (1 + W, W)}
        instr = EqReg((), reg("d", layout), reg("a", layout), reg("b", layout))
        out = execute(instr, {"a": a, "b": b, "d": 0}, layout)
        assert out["d"] == int(a == b)
        assert not out["%scratch_dirty"]

    @pytest.mark.parametrize("a", range(8))
    @pytest.mark.parametrize("const", [0, 3, 7])
    def test_eq_const_and_negation(self, a, const):
        layout = {"d": (0, 1), "a": (1, W)}
        out = execute(
            EqConst((), reg("d", layout), reg("a", layout), const), {"a": a, "d": 0}, layout
        )
        assert out["d"] == int(a == const)
        out = execute(
            EqConst((), reg("d", layout), reg("a", layout), const, negate=True),
            {"a": a, "d": 0},
            layout,
        )
        assert out["d"] == int(a != const)

    @pytest.mark.parametrize("a", range(8))
    def test_lt_const_operands(self, a):
        layout = {"d": (0, 1), "a": (1, W)}
        out = execute(
            LtInto((), reg("d", layout), reg("a", layout), 4), {"a": a, "d": 0}, layout
        )
        assert out["d"] == int(a < 4)
        out = execute(
            LtInto((), reg("d", layout), 4, reg("a", layout)), {"a": a, "d": 0}, layout
        )
        assert out["d"] == int(4 < a)


class TestBitOps:
    @pytest.mark.parametrize("a,b", list(itertools.product([0, 1], repeat=2)))
    def test_and_or(self, a, b):
        out = execute(
            AndBit((), reg("d", LAYOUT_BIT), reg("a", LAYOUT_BIT), reg("b", LAYOUT_BIT)),
            {"a": a, "b": b, "d": 0},
            LAYOUT_BIT,
            word_width=1,
        )
        assert out["d"] == (a & b)
        out = execute(
            OrBit((), reg("d", LAYOUT_BIT), reg("a", LAYOUT_BIT), reg("b", LAYOUT_BIT)),
            {"a": a, "b": b, "d": 0},
            LAYOUT_BIT,
            word_width=1,
        )
        assert out["d"] == (a | b)

    @pytest.mark.parametrize("a", [0, 1])
    @pytest.mark.parametrize("const", [0, 1])
    def test_and_or_with_const(self, a, const):
        layout = {"d": (0, 1), "a": (1, 1)}
        out = execute(
            AndBit((), reg("d", layout), reg("a", layout), const), {"a": a, "d": 0}, layout, 1
        )
        assert out["d"] == (a & const)
        out = execute(
            OrBit((), reg("d", layout), reg("a", layout), const), {"a": a, "d": 0}, layout, 1
        )
        assert out["d"] == (a | const)

    @pytest.mark.parametrize("a", [0, 1])
    def test_not(self, a):
        layout = {"d": (0, 1), "a": (1, 1)}
        out = execute(NotBit((), reg("d", layout), reg("a", layout)), {"a": a, "d": 0}, layout, 1)
        assert out["d"] == 1 - a

    @pytest.mark.parametrize("a", [0, 1])
    def test_same_operand_and(self, a):
        layout = {"d": (0, 1), "a": (1, 1)}
        r = reg("a", layout)
        out = execute(AndBit((), reg("d", layout), r, r), {"a": a, "d": 0}, layout, 1)
        assert out["d"] == a


class TestDataMovement:
    def test_xor_const(self):
        layout = {"d": (0, W)}
        out = execute(XorConst((), reg("d", layout), 0b101), {"d": 0b011}, layout)
        assert out["d"] == 0b110

    def test_xor_reg(self):
        layout = {"d": (0, W), "a": (W, W)}
        out = execute(XorReg((), reg("d", layout), reg("a", layout)), {"d": 3, "a": 5}, layout)
        assert out["d"] == 3 ^ 5

    @pytest.mark.parametrize("a,b", [(0, 0), (3, 5), (7, 1)])
    def test_swap(self, a, b):
        layout = {"a": (0, W), "b": (W, W)}
        out = execute(
            SwapReg((), reg("a", layout), reg("b", layout)), {"a": a, "b": b}, layout
        )
        assert (out["a"], out["b"]) == (b, a)


class TestMemSwap:
    LAYOUT = {"p": (12, 2), "v": (14, 4)}  # memory: 3 cells x 4 bits at 0..11
    MEM = MemoryLayout(heap_cells=3, cell_bits=4, base=0)

    def run_memswap(self, addr, value, cells):
        layout = dict(self.LAYOUT)
        for a, cell in enumerate(cells, start=1):
            layout[f"m{a}"] = ((a - 1) * 4, 4)
        values = {"p": addr, "v": value}
        for a, cell in enumerate(cells, start=1):
            values[f"m{a}"] = cell
        instr = MemSwapInstr((), reg("p", layout), reg("v", layout))
        return execute(instr, values, layout, word_width=4, memory=self.MEM)

    def test_swap_with_cell(self):
        out = self.run_memswap(2, 0xA, [1, 2, 3])
        assert out["v"] == 2
        assert out["m2"] == 0xA
        assert out["m1"] == 1 and out["m3"] == 3
        assert not out["%scratch_dirty"]

    def test_null_address_is_noop(self):
        out = self.run_memswap(0, 0xA, [1, 2, 3])
        assert out["v"] == 0xA
        assert [out["m1"], out["m2"], out["m3"]] == [1, 2, 3]

    def test_each_address(self):
        for addr in (1, 2, 3):
            out = self.run_memswap(addr, 0xF, [4, 5, 6])
            assert out["v"] == [4, 5, 6][addr - 1]
            assert out[f"m{addr}"] == 0xF


class TestControls:
    def test_controls_gate_everything(self):
        # an AddInto with an unsatisfied control must be the identity
        layout = {"d": (0, W), "a": (W, W), "b": (2 * W, W), "c": (2 * W + W, 1)}
        instr = AddInto(
            (layout["c"][0],), reg("d", layout), reg("a", layout), reg("b", layout)
        )
        out = execute(instr, {"a": 3, "b": 4, "d": 0, "c": 0}, layout)
        assert out["d"] == 0
        out = execute(instr, {"a": 3, "b": 4, "d": 0, "c": 1}, layout)
        assert out["d"] == 7

    def test_instruction_gates_are_involutions(self):
        # running the same instruction twice must be the identity (this is
        # why un-assignment reuses the assignment's instructions)
        layout = {"d": (0, W), "a": (W, W), "b": (2 * W, W)}
        scratch = ScratchPool(3 * W)
        expander = InstructionExpander(scratch, None, W)
        for instr in [
            AddInto((), reg("d", layout), reg("a", layout), reg("b", layout)),
            MulInto((), reg("d", layout), reg("a", layout), reg("b", layout)),
            EqReg((), Register("d", 0, 1), reg("a", layout), reg("b", layout)),
        ]:
            gates = expander.expand(instr)
            circ = Circuit(max(scratch.high_water, 3 * W), gates + gates)
            for probe in (0, 0b101101, 0b111000):
                assert classical_sim.run(circ, probe) == probe


# ----------------------------------------------------------- program oracle
#: perfbench's compiler configuration (the ``repro serve`` defaults)
SERVE_CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=6)

CORPUS = Path(__file__).parent / "corpus"

SEEDS = load_seed_manifest(CORPUS / "seeds.json")

#: a ``with`` block under an ``if``: its memory swap repeats, controlled
GUARDED_SWAP_SRC = """
type list = (uint, ptr<list>);
fun main(c: bool, xs: ptr<list>) -> uint {
  if c {
    with {
      let temp <- default<list>;
      *xs <-> temp;
      let v <- temp.1;
    } do { let out <- v + 1; }
  }
  return out;
}
"""


def lowered_by_oracle(abstract, config, cell_bits):
    """Every instruction expanded afresh, in order, with no reuse:
    (gates, qubit count, scratch high water)."""
    memory = (
        MemoryLayout(config.heap_cells, cell_bits)
        if cell_bits and config.heap_cells
        else None
    )
    scratch = ScratchPool(abstract.allocator.region_end)
    expander = InstructionExpander(scratch, memory, config.word_width)
    gates = [gate for instr in abstract.instrs for gate in expander.expand(instr)]
    start = max(scratch.high_water, abstract.allocator.region_end)
    return gates, Circuit(start, gates).num_qubits, scratch.high_water


def assert_lowers_as_oracle(cp):
    """``expand_program`` on the abstract program of a compile builds the
    oracle's gates, qubit count and scratch high water, and the circuit
    the compile built."""
    memory_qubits = cp.config.heap_cells * cp.cell_bits if cp.cell_bits else 0
    abstract = lower_to_abstract(
        cp.core,
        cp.table,
        cp.var_types,
        param_order=list(cp.param_types),
        base_offset=memory_qubits,
    )
    circuit, scratch = expand_program(abstract, cp.config, cp.cell_bits)
    gates, num_qubits, high_water = lowered_by_oracle(
        abstract, cp.config, cp.cell_bits
    )
    assert circuit.gates == gates
    assert circuit.num_qubits == num_qubits
    assert scratch.high_water == high_water
    assert circuit == cp.circuit
    return abstract


class TestProgramLowering:
    @pytest.mark.parametrize("config", [TINY, SERVE_CFG], ids=["tiny", "serve"])
    @pytest.mark.parametrize("name", sorted(SOURCES))
    def test_table1_programs(self, name, config):
        depths = [None] if is_unsized(name) else [1, 2, 3, 4]
        program = parse_program(SOURCES[name])
        for depth in depths:
            for preset in ("none", "spire"):
                assert_lowers_as_oracle(
                    compile_program(program, get_entry(name), depth, config, preset)
                )

    @pytest.mark.parametrize(
        "seed,gen", SEEDS, ids=[f"seed{seed}" for seed, _ in SEEDS]
    )
    def test_corpus_seeds(self, seed, gen):
        config = default_fuzz_config(gen)
        program = generate_program(seed, gen, config)
        for preset in ("none", "spire"):
            assert_lowers_as_oracle(compile_program(program, "main", None, config, preset))

    def test_corpus_cases(self):
        for case in load_corpus(CORPUS / "cases"):
            config = case.compiler_config(OracleConfig().compiler)
            program = parse_program(case.source)
            for preset in ("none", "spire"):
                assert_lowers_as_oracle(
                    compile_program(program, case.entry, case.size, config, preset)
                )

    def test_a_guarded_swap_repeats_under_its_control(self):
        cp = compile_source(GUARDED_SWAP_SRC, "main", config=SERVE_CFG)
        abstract = assert_lowers_as_oracle(cp)
        swaps = [i for i in abstract.instrs if isinstance(i, MemSwapInstr)]
        assert len(swaps) == 2 and swaps[0] == swaps[1] and swaps[0].controls
