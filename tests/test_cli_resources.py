"""Tests for the CLI and the resource estimator."""

import re

import pytest

from repro.benchsuite import BenchmarkRunner, get_source
from repro.cli import main
from repro.compiler import compile_source
from repro.config import CompilerConfig
from repro.cost.resources import estimate_resources, schedule_depth
from repro.circuit import Circuit, cnot, h, t, tdg, toffoli

CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=5)


@pytest.fixture
def source_file(tmp_path, length_source):
    path = tmp_path / "length.twr"
    path.write_text(length_source)
    return str(path)


COMMON = ["--entry", "length", "--size", "3", "--word-width", "3",
          "--addr-width", "3", "--heap-cells", "5"]


class TestCli:
    def test_compile(self, source_file, capsys):
        assert main(["compile", source_file, *COMMON]) == 0
        out = capsys.readouterr().out
        assert "T-complexity" in out and "MCX-complexity" in out

    def test_compile_with_spire_and_emit(self, source_file, capsys, tmp_path):
        emitted = tmp_path / "out.qc"
        code = main(["compile", source_file, *COMMON,
                     "--optimize", "spire", "--emit", str(emitted)])
        assert code == 0
        text = emitted.read_text()
        assert text.startswith(".v ")
        from repro.circuit import qc_format

        parsed = qc_format.loads(text)
        assert len(parsed.gates) > 0

    def test_analyze(self, source_file, capsys):
        assert main(["analyze", source_file, *COMMON]) == 0
        out = capsys.readouterr().out
        assert "C_MCX" in out and "C_T" in out

    def test_resources(self, source_file, capsys):
        assert main(["resources", source_file, *COMMON]) == 0
        out = capsys.readouterr().out
        assert "T-depth" in out and "area-latency" in out

    def test_optimizers(self, tmp_path, capsys):
        # the built-in program, so each printed T-count can be checked
        # against the runner's row for the same pipeline
        path = tmp_path / "length.twr"
        path.write_text(get_source("length"))
        assert main(["optimizers", str(path), *COMMON, "--timeout", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "toffoli-cancel" in out and "zx-like" in out
        printed = dict(re.findall(r"^  (\S+) +T=(\d+)", out, re.M))
        assert sorted(printed) == [
            "greedy-search", "peephole", "rotation-merge", "toffoli-cancel",
            "zx-like",
        ]
        runner = BenchmarkRunner(CFG)
        # greedy-search is left out: its search phase stops at a wall-clock
        # deadline, so two runs of one spec may differ
        for name in ("peephole", "rotation-merge", "toffoli-cancel", "zx-like"):
            point = runner.measure("length", 3, f"none+{name}")
            assert int(printed[name]) == point.t, name

    def test_missing_file_is_an_error(self, capsys):
        assert main(["compile", "/nope/missing.twr", *COMMON]) == 1

    def test_bad_program_is_an_error(self, tmp_path, capsys):
        path = tmp_path / "bad.twr"
        path.write_text("fun f() -> uint { let x <- y; return x; }")
        assert main(["compile", str(path), "--entry", "f"]) == 1


class TestScheduleDepth:
    def test_empty(self):
        assert schedule_depth(Circuit(1, [])) == (0, 0)

    def test_serial_chain(self):
        circ = Circuit(1, [t(0), t(0), t(0)])
        assert schedule_depth(circ) == (3, 3)

    def test_parallel_gates_share_a_layer(self):
        circ = Circuit(2, [t(0), t(1)])
        assert schedule_depth(circ) == (1, 1)

    def test_clifford_layers_not_counted_in_t_depth(self):
        circ = Circuit(2, [h(0), cnot(0, 1), t(1)])
        total, t_depth = schedule_depth(circ)
        assert total == 3
        assert t_depth == 1

    def test_dependency_through_shared_qubit(self):
        circ = Circuit(3, [cnot(0, 1), cnot(1, 2)])
        assert schedule_depth(circ)[0] == 2


class TestResourceReport:
    def test_length_report(self, length_source):
        compiled = compile_source(length_source, "length", size=3, config=CFG)
        report = estimate_resources(compiled)
        assert report.t_count == compiled.t_complexity()
        assert 0 < report.t_depth <= report.total_depth
        assert report.qubits >= compiled.num_qubits()
        assert report.heap_qubits == CFG.heap_cells * compiled.cell_bits
        assert report.data_qubits > 0
        assert (report.data_qubits + report.heap_qubits
                + report.scratch_qubits == report.qubits)
        assert report.area_latency == report.qubits * report.t_depth

    def test_spire_reduces_t_depth_too(self, length_source):
        plain = estimate_resources(compile_source(length_source, "length", size=4, config=CFG))
        spire = estimate_resources(
            compile_source(length_source, "length", size=4, config=CFG, optimization="spire")
        )
        assert spire.t_depth < plain.t_depth
        assert spire.t_count < plain.t_count
