"""End-to-end compilation pipeline tests, incl. IR-vs-circuit differential."""

import pytest

from repro.benchsuite import HeapImage
from repro.circuit import classical_sim
from repro.compiler import compile_source
from repro.config import CompilerConfig
from repro.errors import LoweringError
from repro.ir import run_program
from repro.lang import lower_source

CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=5)


class TestBasicCompilation:
    def test_simple_program(self):
        cp = compile_source(
            "fun main(x: uint) -> uint { let y <- x + 1; return y; }", "main", config=CFG
        )
        out = classical_sim.run_on_registers(cp.circuit, {"x": 4})
        assert out["y"] == 5

    def test_registers_exposed(self):
        cp = compile_source(
            "fun main(x: uint) -> uint { let y <- x + 1; return y; }", "main", config=CFG
        )
        assert "x" in cp.circuit.registers
        assert cp.return_var == "y"
        assert cp.register("x").width == 3

    def test_memory_registers_exposed(self, length_source):
        cp = compile_source(length_source, "length", size=2, config=CFG)
        assert "mem[1]" in cp.circuit.registers
        assert cp.cell_bits == 6  # (uint 3, ptr 3)

    def test_no_memory_program_has_no_heap(self):
        cp = compile_source(
            "fun main(x: uint) -> uint { let y <- x + 1; return y; }", "main", config=CFG
        )
        assert cp.cell_bits == 0
        assert "mem[1]" not in cp.circuit.registers

    def test_explicit_cell_bits_too_small_rejected(self, length_source):
        cfg = CompilerConfig(word_width=3, addr_width=3, heap_cells=5, cell_bits=4)
        with pytest.raises(LoweringError):
            compile_source(length_source, "length", size=2, config=cfg)

    def test_timings_recorded(self, length_source):
        cp = compile_source(length_source, "length", size=2, config=CFG)
        assert [r.name for r in cp.pass_records] == ["typecheck", "alloc", "lower"]
        assert all(r.seconds > 0 for r in cp.pass_records)


class TestOneTypingWalk:
    @pytest.mark.parametrize("optimization,checks", [("none", 1), ("spire", 2)])
    def test_alloc_reads_the_checks_types(
        self, monkeypatch, length_source, optimization, checks
    ):
        """A compile types the program in the frontend's strict check, plus
        one relaxed check after IR passes; ``alloc`` binds no name."""
        from repro.ir import typecheck
        from repro.passes.builtin import AllocPass

        walks, binds, in_alloc = [], [], []
        check_stmt, bind, apply = (
            typecheck.check_stmt, typecheck.Context.bind, AllocPass.apply
        )

        def counted_check(*args, **kwargs):
            walks.append(1)
            return check_stmt(*args, **kwargs)

        def counted_bind(self, name, ty):
            binds.append(bool(in_alloc))
            bind(self, name, ty)

        def marked_apply(self, ctx):
            in_alloc.append(1)
            try:
                apply(self, ctx)
            finally:
                in_alloc.pop()

        monkeypatch.setattr(typecheck, "check_stmt", counted_check)
        monkeypatch.setattr(typecheck.Context, "bind", counted_bind)
        monkeypatch.setattr(AllocPass, "apply", marked_apply)
        cp = compile_source(length_source, "length", size=2, config=CFG,
                            optimization=optimization)
        assert len(walks) == checks
        assert binds and not any(binds)
        assert cp.var_types and set(cp.circuit.registers) >= set(cp.param_types)


class TestDifferential:
    """The compiled circuit and the IR interpreter must agree exactly."""

    @pytest.mark.parametrize("depth", [1, 2, 3, 4])
    @pytest.mark.parametrize("optimization", ["none", "spire", "flatten", "narrow"])
    def test_length_all_modes_all_depths(self, length_source, depth, optimization):
        low = lower_source(length_source, "length", size=depth, config=CFG)
        cp = compile_source(
            length_source, "length", size=depth, config=CFG, optimization=optimization
        )
        heap = HeapImage(CFG)
        head = heap.add_list([7, 5, 3])
        inputs = {"xs": head, "acc": 0}
        machine = run_program(
            low.stmt, low.table, inputs=inputs, input_types=low.param_types,
            memory=heap.as_memory(),
        )
        circuit_inputs = dict(inputs)
        circuit_inputs.update(heap.as_registers())
        out = classical_sim.run_on_registers(cp.circuit, circuit_inputs)
        assert out[cp.return_var] == machine.registers[low.return_var]
        # all non-input non-output registers restored to zero
        for name, value in out.items():
            if name in circuit_inputs or name == cp.return_var:
                continue
            if name.startswith("mem["):
                continue
            assert value == 0, (name, value)
        # memory restored
        for addr, cell in heap.cells.items():
            assert out[f"mem[{addr}]"] == cell

    def test_optimized_matches_unoptimized_on_all_list_shapes(self, length_source):
        for values in ([], [1], [1, 2], [3, 1, 4]):
            heap = HeapImage(CFG)
            head = heap.add_list(values)
            inputs = {"xs": head, "acc": 0}
            results = []
            for optimization in ("none", "spire"):
                cp = compile_source(
                    length_source, "length", size=5, config=CFG, optimization=optimization
                )
                circuit_inputs = dict(inputs)
                circuit_inputs.update(heap.as_registers())
                out = classical_sim.run_on_registers(cp.circuit, circuit_inputs)
                results.append(out[cp.return_var])
            assert results[0] == results[1] == len(values)


class TestQubitCounts:
    def test_spire_qubit_overhead_is_small(self, length_source):
        # Appendix F: conditional flattening adds O(1) qubits per if level
        plain = compile_source(length_source, "length", size=4, config=CFG)
        spire = compile_source(
            length_source, "length", size=4, config=CFG, optimization="spire"
        )
        assert abs(spire.num_qubits() - plain.num_qubits()) <= 8

    def test_memory_occupies_low_qubits(self, length_source):
        cp = compile_source(length_source, "length", size=2, config=CFG)
        assert cp.register("mem[1]").offset == 0
        assert cp.register("xs").offset >= CFG.heap_cells * cp.cell_bits
