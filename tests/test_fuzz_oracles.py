"""Corpus replay and oracle-harness tests.

The fast tier replays the deterministic corpus (``tests/corpus``) on every
run: the seed manifest drives the generator and the checked-in reproducers
guard fixed defects.  Long fresh-seed sweeps are gated behind ``-m fuzz``.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from repro.fuzz import (
    GenConfig,
    OracleConfig,
    check_generated,
    load_corpus,
    replay_case,
)
from repro.fuzz.corpus import CorpusCase, load_seed_manifest, save_case
from repro.fuzz.oracles import OracleFailure, run_oracles
from repro.lang.parser import parse_program

CORPUS = Path(__file__).parent / "corpus"

#: fast replay settings: the full oracle stack minus the optimizer sweep
FAST = OracleConfig(n_inputs=2, check_optimizers=False)
#: complete oracle stack (optimizer baselines included)
FULL = OracleConfig(n_inputs=2)


def seed_entries():
    return load_seed_manifest(CORPUS / "seeds.json")


@pytest.mark.parametrize(
    "seed,gen", seed_entries(), ids=[f"seed{s}" for s, _ in seed_entries()]
)
def test_corpus_seed_replay(seed, gen):
    report = check_generated(seed, gen, FAST)
    assert report.ok, f"{report.oracle}: {report.message}\n{report.source}"


@pytest.mark.parametrize("seed", [0, 5, 11, 203])
def test_corpus_seed_replay_full_oracles(seed):
    report = check_generated(seed, GenConfig(), FULL)
    assert report.ok, f"{report.oracle}: {report.message}\n{report.source}"


def test_corpus_cases_replay():
    cases = load_corpus(CORPUS / "cases")
    assert cases, "the reproducer corpus must not be empty"
    for case in cases:
        stats = replay_case(case, FULL)
        assert stats["qubits"] > 0


def test_corpus_case_roundtrip(tmp_path):
    case = CorpusCase(
        name="example",
        source="fun main(x: uint) -> uint {\n  let y <- x;\n  return y;\n}\n",
        oracle=None,
        description="round-trip fixture",
    )
    path = save_case(case, tmp_path)
    loaded = load_corpus(tmp_path)
    assert path.name == "example.json"
    assert loaded == [case]
    replay_case(case, FAST)


class TestOracleHarness:
    def test_detects_optimizer_semantics_bug(self, monkeypatch):
        """A deliberately broken optimizer must be caught by the oracles."""
        from repro.circopt import cancel as cancel_mod
        from repro.circuit.circuit import Circuit
        from repro.circuit.gates import x as x_gate

        real_run = cancel_mod.CliffordTPeephole.run

        def broken(self, circuit):
            result = real_run(self, circuit)
            broken_gates = list(result.gates) + [x_gate(0)]
            out = Circuit(result.num_qubits, broken_gates)
            out.registers = result.registers
            return out

        monkeypatch.setattr(cancel_mod.CliffordTPeephole, "run", broken)
        program = parse_program(
            "fun main(x: uint) -> uint {\n  let y <- x + 1;\n  return y;\n}\n"
        )
        with pytest.raises(OracleFailure) as info:
            run_oracles(program, "main", None, FULL, input_seed=0)
        assert "peephole" in info.value.oracle

    def test_detects_cost_model_mismatch(self, monkeypatch):
        from repro.fuzz import oracles as oracles_mod

        real = oracles_mod.exact_counts

        def skewed(*args, **kwargs):
            mcx, t = real(*args, **kwargs)
            return mcx + 1, t

        monkeypatch.setattr(oracles_mod, "exact_counts", skewed)
        program = parse_program(
            "fun main(x: uint) -> uint {\n  let y <- x + 1;\n  return y;\n}\n"
        )
        with pytest.raises(OracleFailure) as info:
            run_oracles(program, "main", None, FAST, input_seed=0)
        assert info.value.oracle.startswith("cost-exact")

    def test_static_bound_checks_raw_spec_levels(self, monkeypatch):
        """Every compiled level gets the static-bound check: a raw spec,
        such as a bisection prefix, as well as a preset."""
        import repro.analysis as analysis_mod

        real = analysis_mod.static_bounds
        seen = []

        def tap(program, entry, size, pipeline, config):
            seen.append(pipeline)
            return real(program, entry, size, pipeline, config)

        monkeypatch.setattr(analysis_mod, "static_bounds", tap)
        cfg = replace(FAST, optimizations=("none", "flatten,alloc,lower"))
        program = parse_program(
            "fun main(x: uint) -> uint {\n  let y <- x + 1;\n  return y;\n}\n"
        )
        run_oracles(program, "main", None, cfg, input_seed=0)
        assert seen == ["none", "flatten,alloc,lower"]

    def test_report_contains_source_on_failure(self, monkeypatch):
        from repro.fuzz import oracles as oracles_mod

        def boom(*args, **kwargs):
            raise OracleFailure("synthetic", "boom")

        monkeypatch.setattr(oracles_mod, "run_oracles", boom)
        report = check_generated(0, GenConfig(), FAST)
        assert not report.ok
        assert report.oracle == "synthetic"
        assert "fun main" in report.source


class TestOptimizerSizeCap:
    """Size-tiered optimizer effort: deterministic, logged, overridable."""

    SRC = "fun main(x: uint) -> uint {\n  let y <- x * x;\n  return y;\n}\n"

    def test_oversized_program_skips_baselines(self):
        from dataclasses import replace

        cfg = replace(FULL, optimizer_t_cap=0)
        stats = run_oracles(parse_program(self.SRC), "main", None, cfg,
                            input_seed=0)
        assert stats["optimizers_skipped"] == stats["t_clifford"] > 0
        assert not any(key.startswith("t_peephole") for key in stats)

    def test_uncapped_runs_every_baseline(self):
        from dataclasses import replace

        cfg = replace(FULL, optimizer_t_cap=None)
        stats = run_oracles(parse_program(self.SRC), "main", None, cfg,
                            input_seed=0)
        assert "optimizers_skipped" not in stats
        for name in cfg.optimizers:
            assert f"t_{name}" in stats

    def test_full_sim_cap_reduces_inputs_not_baselines(self):
        from dataclasses import replace

        cfg = replace(FULL, optimizer_full_sim_t_cap=0)
        stats = run_oracles(parse_program(self.SRC), "main", None, cfg,
                            input_seed=0)
        assert stats["optimizer_inputs"] == 1
        for name in cfg.optimizers:
            assert f"t_{name}" in stats

    def test_default_cap_keeps_small_programs_fully_checked(self):
        stats = run_oracles(parse_program(self.SRC), "main", None, FULL,
                            input_seed=0)
        assert stats["optimizer_inputs"] == FULL.n_inputs
        assert "optimizers_skipped" not in stats


@pytest.mark.fuzz
@pytest.mark.parametrize("block", range(6))
def test_fresh_seed_sweep(block):
    """Budgeted fresh-seed run (full oracles); gated behind ``-m fuzz``."""
    base = 1_000 + 25 * block
    for seed in range(base, base + 25):
        report = check_generated(seed, GenConfig(), OracleConfig())
        assert report.ok, (
            f"seed {seed} {report.oracle}: {report.message}\n{report.source}"
        )


SUPERPOSED_SRC = "fun main(x: bool) -> bool {\n  H(x);\n  return x;\n}\n"
CONTROLLED_H_SRC = (
    "fun main(c: bool, x: bool) -> bool {\n"
    "  if c {\n    H(x);\n  }\n  return x;\n}\n"
)


class TestAmplitudeOracles:
    """The statevector-only oracle path for programs in superposition."""

    def test_superposed_program_passes_and_reports(self):
        stats = run_oracles(
            parse_program(SUPERPOSED_SRC), "main", None, FULL, input_seed=0
        )
        assert stats["superposed"] is True
        assert stats["max_branches"] >= 2

    def test_controlled_hadamard_passes(self):
        stats = run_oracles(
            parse_program(CONTROLLED_H_SRC), "main", None, FULL, input_seed=0
        )
        assert stats["superposed"] is True

    def test_classical_program_not_superposed(self):
        stats = run_oracles(
            parse_program(
                "fun main(x: uint) -> uint {\n  let y <- x + 1;\n  return y;\n}\n"
            ),
            "main",
            None,
            FAST,
            input_seed=0,
        )
        assert stats["superposed"] is False

    def test_phase_error_in_optimizer_is_caught(self, monkeypatch):
        """A Z injected on a superposed qubit fixes every basis state, so
        only the amplitude oracle can see it."""
        from repro.circopt import cancel as cancel_mod
        from repro.circuit.circuit import Circuit
        from repro.circuit.gates import z as z_gate

        real_run = cancel_mod.CliffordTPeephole.run

        def broken(self, circuit):
            result = real_run(self, circuit)
            target = result.registers["x"].offset
            out = Circuit(result.num_qubits, list(result.gates) + [z_gate(target)])
            out.registers = result.registers
            return out

        monkeypatch.setattr(cancel_mod.CliffordTPeephole, "run", broken)
        with pytest.raises(OracleFailure) as info:
            run_oracles(
                parse_program(SUPERPOSED_SRC), "main", None, FULL, input_seed=0
            )
        assert "peephole" in info.value.oracle
        # ... and the classical basis-state oracle indeed cannot:
        from repro.circuit import classical_sim
        from repro.circuit.gates import z as z2

        assert classical_sim.apply_gate(0, z2(0)) == 0

    def test_optimization_level_amplitude_drift_is_caught(self, monkeypatch):
        """An optimization pass that drops an H statement changes the
        amplitude dictionary and must be flagged against the reference.

        The defect is injected into the pass framework's spire engine —
        the traversal every ``flatten``/``narrow``/``spire`` pipeline
        runs through since the pass-manager refactor."""
        from repro.ir.core import Hadamard, Skip
        from repro.passes import ENGINES

        real = ENGINES["spire"]

        def h_dropping(rules, stmt):
            from repro.ir.core import Seq, seq as mkseq

            out = real(rules, stmt)

            def strip(node):
                if isinstance(node, Hadamard):
                    return Skip()
                if isinstance(node, Seq):
                    return mkseq(*(strip(s) for s in node.stmts))
                return node

            return strip(out)

        monkeypatch.setitem(ENGINES, "spire", h_dropping)
        with pytest.raises(OracleFailure) as info:
            run_oracles(
                parse_program(SUPERPOSED_SRC), "main", None, FAST, input_seed=0
            )
        assert "spire" in info.value.oracle

    def test_global_phase_is_canonicalized(self):
        import cmath
        import math

        from repro.fuzz.oracles import _canonical_branches, _compare_branches

        layout = (("x", 0, 1),)
        amp = 1.0 / math.sqrt(2.0)
        a = {0: amp, 1: amp * 1j}
        phase = cmath.exp(1j * 1.234)
        b = {idx: value * phase for idx, value in a.items()}
        canon_a = _canonical_branches(a, layout, None, "test", 1e-9)
        canon_b = _canonical_branches(b, layout, None, "test", 1e-9)
        _compare_branches(canon_a, canon_b, "test", 1e-7)

    def test_amplitude_difference_beyond_tolerance_flagged(self):
        import math

        from repro.fuzz.oracles import _canonical_branches, _compare_branches

        layout = (("x", 0, 1),)
        amp = 1.0 / math.sqrt(2.0)
        canon_a = _canonical_branches({0: amp, 1: amp}, layout, None, "t", 1e-9)
        canon_b = _canonical_branches({0: amp, 1: -amp}, layout, None, "t", 1e-9)
        with pytest.raises(OracleFailure):
            _compare_branches(canon_a, canon_b, "t", 1e-7)

    def test_ancilla_nonzero_branch_flagged(self):
        from repro.fuzz.oracles import _canonical_branches

        layout = (("x", 0, 1),)  # qubit 1 is outside the register map
        with pytest.raises(OracleFailure) as info:
            _canonical_branches({0b10: 1.0}, layout, None, "t", 1e-9)
        assert info.value.oracle.startswith("ancilla-nonzero")

    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    def test_generated_superposition_seeds(self, seed):
        report = check_generated(seed, GenConfig(hadamard_prob=0.3), FULL)
        assert report.ok, f"{report.oracle}: {report.message}\n{report.source}"


class TestHeapShapeWorkloads:
    """Well-formed list/tree workloads checked end to end."""

    @pytest.mark.parametrize("seed", [2, 3])  # seed 2/3 generate list shapes
    def test_list_traversal_seeds(self, seed):
        from repro.fuzz.generator import generate_workload
        from repro.fuzz.oracles import oracle_config_for

        gen = GenConfig(heap_shapes=True)
        cfg = oracle_config_for(gen, FAST)
        workload = generate_workload(seed, gen, cfg.compiler)
        assert any(shape.kind == "list" for shape in workload.shapes)
        report = check_generated(seed, gen, FAST)
        assert report.ok, f"{report.oracle}: {report.message}\n{report.source}"

    @pytest.mark.parametrize("seed", [0, 1])  # seed 0/1 generate tree shapes
    def test_tree_traversal_seeds(self, seed):
        from repro.fuzz.generator import generate_workload
        from repro.fuzz.oracles import oracle_config_for

        gen = GenConfig(heap_shapes=True)
        cfg = oracle_config_for(gen, FAST)
        workload = generate_workload(seed, gen, cfg.compiler)
        assert any(shape.kind == "tree" for shape in workload.shapes)
        report = check_generated(seed, gen, FAST)
        assert report.ok, f"{report.oracle}: {report.message}\n{report.source}"

    def test_input_plan_lays_out_well_formed_structures(self):
        import random

        from repro.benchsuite.memory_images import (
            check_list_well_formed,
            check_tree_well_formed,
        )
        from repro.fuzz.generator import HEAP_FUZZ_CONFIG, HeapShapeInfo
        from repro.fuzz.oracles import _InputPlan

        shapes = (
            HeapShapeInfo("list", "xs", 3),
            HeapShapeInfo("tree", "t", 2),
        )
        widths = {"xs": 3, "t": 3, "acc": 2}
        plan = _InputPlan(
            random.Random(0), widths, shapes, HEAP_FUZZ_CONFIG, cell_bits=8
        )
        for _ in range(10):
            inputs, memory = plan.draw()
            check_list_well_formed(memory, inputs["xs"], HEAP_FUZZ_CONFIG)
            check_tree_well_formed(memory, inputs["t"], HEAP_FUZZ_CONFIG)

    def test_shaped_case_roundtrip(self, tmp_path):
        from repro.fuzz.generator import HEAP_FUZZ_CONFIG, generate_workload
        from repro.fuzz.generator import render_program

        gen = GenConfig(heap_shapes=True)
        workload = generate_workload(5, gen, HEAP_FUZZ_CONFIG)
        from dataclasses import asdict

        case = CorpusCase(
            name="shaped",
            source=render_program(workload.program),
            seed=5,
            input_seed=5,
            compiler=vars(HEAP_FUZZ_CONFIG),
            shapes=[asdict(shape) for shape in workload.shapes],
        )
        save_case(case, tmp_path)
        (loaded,) = load_corpus(tmp_path)
        assert loaded.shape_infos() == workload.shapes
        replay_case(loaded, FAST)


@pytest.mark.fuzz
@pytest.mark.parametrize("block", range(4))
def test_fresh_superposition_heap_sweep(block):
    """Fresh-seed superposition + heap-shape sweep; gated behind ``-m fuzz``."""
    base = 5_000 + 10 * block
    gen = GenConfig(hadamard_prob=0.3, heap_shapes=True)
    for seed in range(base, base + 10):
        report = check_generated(seed, gen, OracleConfig())
        assert report.ok, (
            f"seed {seed} {report.oracle}: {report.message}\n{report.source}"
        )
