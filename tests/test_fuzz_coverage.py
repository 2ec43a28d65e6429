"""Coverage collection and coverage-guided seed scheduling tests."""

import pytest

from repro.circuit.gates import reset_shared_gates
from repro.fuzz.corpus import (
    ScheduleResult,
    coverage_guided_run,
    load_seed_manifest,
    save_seed_manifest,
    uniform_run,
)
from repro.fuzz.coverage import CoverageMap, covered_run
from repro.fuzz.generator import GenConfig
from repro.fuzz.oracles import OracleConfig

#: cheap oracle settings for scheduling tests (coverage tracing is the
#: point here, not oracle depth)
FAST = OracleConfig(n_inputs=1, check_optimizers=False)


class TestCollector:
    def test_covers_target_packages_only(self):
        from repro.lang.parser import parse_program
        from repro.lang.desugar import lower_entry

        program = parse_program(
            "fun main(x: uint) -> uint {\n  let y <- x + 1;\n  return y;\n}\n"
        )
        lowered, coverage = covered_run(lower_entry, program, "main")
        assert lowered.stmt is not None
        files = {path for path, _ in coverage.lines}
        assert any("typecheck" in f or "core" in f for f in files)
        # nothing outside repro.ir/compiler/circopt is traced
        assert not any("lang" in f.replace("\\", "/").split("/")[-2] for f in files)

    def test_branch_arcs_are_directional(self):
        from repro.ir.core import Skip
        from repro.ir.reverse import reverse

        _, coverage = covered_run(reverse, Skip())
        assert coverage.arcs
        for path, prev, line in coverage.arcs:
            assert isinstance(prev, int) and isinstance(line, int)

    def test_determinism(self):
        from repro.ir.core import Skip
        from repro.ir.reverse import reverse

        _, a = covered_run(reverse, Skip())
        _, b = covered_run(reverse, Skip())
        assert a.lines == b.lines and a.arcs == b.arcs

    def test_exceptions_propagate_and_uninstall(self):
        import sys

        def boom():
            raise ValueError("boom")

        with pytest.raises(ValueError):
            covered_run(boom)
        assert sys.gettrace() is None

    def test_merge_and_novel(self):
        a = CoverageMap(lines={("f", 1)}, arcs={("f", 1, 2)})
        b = CoverageMap(lines={("f", 3)}, arcs={("f", 2, 3), ("f", 1, 2)})
        assert a.novel_arcs(b) == {("f", 2, 3)}
        a.merge(b)
        assert a.counts() == {"statements": 2, "branches": 2}


class TestScheduling:
    @pytest.fixture(scope="class")
    def runs(self):
        budget = 8
        guided = coverage_guided_run(0, budget, GenConfig(), FAST)
        uniform = uniform_run(0, budget, GenConfig(), FAST)
        return guided, uniform

    def test_all_seeds_pass(self, runs):
        guided, uniform = runs
        assert all(r.ok for r in guided.reports), [
            (r.seed, r.oracle) for r in guided.reports if not r.ok
        ]
        assert all(r.ok for r in uniform.reports)

    def test_same_budget(self, runs):
        guided, uniform = runs
        assert len(guided.reports) == len(uniform.reports)

    def test_guided_beats_uniform_branch_coverage(self, runs):
        """The acceptance metric: strictly higher cumulative branch coverage
        for the same program budget."""
        guided, uniform = runs
        assert guided.branch_coverage() > uniform.branch_coverage()

    def test_summary_logs_the_metric(self, runs):
        guided, _ = runs
        summary = guided.summary()
        assert "coverage-guided" in summary
        assert f"{guided.branch_coverage()} branches" in summary

    def test_frontier_holds_novel_seeds(self, runs):
        guided, _ = runs
        assert guided.frontier
        assert all(entry.novel_branches > 0 for entry in guided.frontier)

    def test_deterministic_schedule(self, runs):
        guided, _ = runs
        again = coverage_guided_run(0, len(guided.reports), GenConfig(), FAST)
        assert [r.seed for r in again.reports] == [r.seed for r in guided.reports]
        assert again.branch_coverage() == guided.branch_coverage()

    def test_a_run_covers_the_same_whatever_ran_before_it(self):
        """Each run starts from empty process memos.  A uniform run covers
        the same arcs first, second and after a guided run; a guided run
        covers the same arcs again, though on warm memos it would miss one
        that only the cost model's lowering of a new shape reaches."""
        reset_shared_gates()
        first = uniform_run(0, 2, GenConfig(), FAST)
        guided = coverage_guided_run(0, 4, GenConfig(), FAST)
        second = uniform_run(0, 2, GenConfig(), FAST)
        again = coverage_guided_run(0, 4, GenConfig(), FAST)
        after = uniform_run(0, 2, GenConfig(), FAST)
        assert first.coverage.arcs == second.coverage.arcs == after.coverage.arcs
        assert again.coverage.arcs == guided.coverage.arcs

    def test_knob_mutations_explored(self, runs):
        """The round-robin knob mutations reach the superposition and
        heap-shape families, which is where the extra coverage comes from."""
        guided, _ = runs
        gens = [r.gen for r in guided.reports if r.gen is not None]
        assert any(g.hadamard_prob > 0 for g in gens) or any(
            g.heap_shapes for g in gens
        )


class TestFrontierManifest:
    def test_save_load_roundtrip(self, tmp_path):
        entries = [
            (7, GenConfig()),
            (1_000_003, GenConfig(hadamard_prob=0.3, max_depth=4)),
            (42, GenConfig(heap_shapes=True)),
        ]
        path = save_seed_manifest(entries, tmp_path / "frontier.json", "test")
        loaded = load_seed_manifest(path)
        assert loaded == entries
