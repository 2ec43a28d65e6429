"""The pass framework: specs, registry, manager, caching, bisection, CLI."""

import pytest

from repro.benchsuite import ArtifactCache, BenchmarkRunner, task_key
from repro.benchsuite.parallel import stable_rows
from repro.cli import main
from repro.compiler import compile_source
from repro.config import CompilerConfig
from repro.errors import ReproError
from repro.ir.core import If, Seq, Var, Assign
from repro.passes import (
    GATES,
    IR,
    Pass,
    PassError,
    PassManager,
    PassVerificationError,
    Pipeline,
    SEMANTICS_PRESERVING,
    canonical_pipeline,
    pass_catalog,
    pass_names,
    register_pass,
    resolve_pipeline,
    unregister_pass,
)

CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=5)


class TestPipelineSpecs:
    def test_presets_expand(self):
        assert canonical_pipeline("none") == "alloc,lower"
        assert canonical_pipeline("flatten") == "flatten,alloc,lower"
        assert canonical_pipeline("narrow") == "narrow,alloc,lower"
        assert canonical_pipeline("spire") == "flatten,narrow,alloc,lower"

    def test_preset_plus_gate_pass(self):
        assert (
            canonical_pipeline("spire+peephole")
            == "flatten,narrow,alloc,lower,peephole"
        )
        assert canonical_pipeline("none+zx-like") == "alloc,lower,zx-like"

    def test_params_are_canonicalized_sorted(self):
        spec = canonical_pipeline(
            "none+greedy-search(timeout=1.0,preprocess_only=true)"
        )
        assert spec == (
            "alloc,lower,greedy-search(preprocess_only=true,timeout=1.0)"
        )
        # parsing the canonical form round-trips
        assert canonical_pipeline(spec) == spec

    def test_raw_spec_inserts_structural_passes(self):
        assert canonical_pipeline("flatten,narrow") == (
            "flatten,narrow,alloc,lower"
        )
        assert canonical_pipeline("flatten,peephole") == (
            "flatten,alloc,lower,peephole"
        )

    def test_param_parsing_types(self):
        pipe = resolve_pipeline("none+peephole(window=32)")
        assert pipe.gate_passes[-1].kwargs() == {"window": 32}
        pipe = resolve_pipeline(
            "none+greedy-search(preprocess_only=true,timeout=0.5)"
        )
        assert pipe.gate_passes[-1].kwargs() == {
            "preprocess_only": True,
            "timeout": 0.5,
        }

    def test_unknown_pass_rejected(self):
        with pytest.raises(PassError):
            resolve_pipeline("flatten,nonsense")

    @pytest.mark.parametrize(
        "spec",
        [
            "none+peephole(bogus=1)",  # undeclared parameter
            "none+zx-like(nope=2)",
            "none+peephole(window=abc)",  # wrong type
            "none+peephole(window=true)",  # a bool is not an int
            "none+peephole(window=1.5)",
            "none+greedy-search(preprocess_only=1)",
            "flatten(rules=1),alloc,lower",  # an IR pass declares none
            "alloc,lower,peephole(bogus=1)",
        ],
    )
    def test_bad_pass_parameters_rejected_at_parse(self, spec):
        with pytest.raises(PassError, match="bad parameters"):
            resolve_pipeline(spec)

    def test_int_accepted_for_float_parameter(self):
        pipe = resolve_pipeline("none+greedy-search(timeout=2)")
        assert pipe.gate_passes[-1].kwargs() == {"timeout": 2}

    def test_out_of_order_stages_rejected(self):
        with pytest.raises(PassError):
            Pipeline.parse("peephole,flatten,alloc,lower")

    def test_ir_pass_after_lower_rejected(self):
        with pytest.raises(PassError):
            Pipeline.parse("alloc,lower,flatten")

    def test_gate_pass_cannot_be_plus_prefixed_ir(self):
        with pytest.raises(PassError):
            resolve_pipeline("none+flatten")

    def test_gate_prefixes_longest_first(self):
        pipe = resolve_pipeline("spire+peephole+toffoli-cancel")
        specs = [p.spec() for p in pipe.gate_prefixes()]
        assert specs == [
            "flatten,narrow,alloc,lower,peephole",
            "flatten,narrow,alloc,lower",
        ]

    def test_ir_prefixes_grow(self):
        pipe = resolve_pipeline("spire")
        specs = [p.spec() for p in pipe.ir_prefixes()]
        assert specs == [
            "flatten,alloc,lower",
            "flatten,narrow,alloc,lower",
        ]


class TestRegistry:
    def test_expected_passes_registered(self):
        names = pass_names()
        for expected in (
            "flatten", "narrow", "alloc", "lower",
            "peephole", "rotation-merge", "toffoli-cancel", "zx-like",
            "greedy-search",
        ):
            assert expected in names

    def test_catalog_rows_are_described(self):
        for row in pass_catalog():
            assert row["stage"] in ("analyze", "ir", "lower", "gates")
            assert row["description"], row["name"]
            assert SEMANTICS_PRESERVING in row["invariants"], row["name"]


class TestPassManager:
    def test_fused_record_and_timings(self, length_source):
        cp = compile_source(length_source, "length", 3, CFG, "spire")
        names = [r.name for r in cp.pass_records]
        assert names == ["flatten+narrow", "alloc", "lower"]
        fused = cp.pass_records[0]
        assert fused.members == ("flatten", "narrow")
        assert set(cp.timings) == {
            "optimize", "typecheck", "lower_ir", "lower_gates"
        }

    def test_gate_pass_timings_recorded(self, length_source):
        cp = compile_source(length_source, "length", 3, CFG, "spire+peephole")
        assert "opt:peephole" in cp.timings
        assert cp.pass_records[-1].stage == "gates"
        assert cp.circuit.is_clifford_t()

    def test_snapshots_at_replayable_prefixes(self, length_source):
        # the post-lower circuit is the MCX circuit, before the gate passes
        post_lower = compile_source(length_source, "length", 3, CFG, "spire").circuit
        pipeline = resolve_pipeline("spire+peephole+toffoli-cancel")
        final, _records, snapshots = PassManager(pipeline).run_gate_suffix(
            post_lower, start=len(pipeline.compile_prefix().passes)
        )
        assert [spec for spec, _ in snapshots] == [
            "flatten,narrow,alloc,lower,peephole",
            "flatten,narrow,alloc,lower,peephole,toffoli-cancel",
        ]
        assert snapshots[-1][1] is final
        assert post_lower.t_complexity() >= final.t_count()

    def test_verify_passes_clean_pipeline(self, length_source):
        cp = compile_source(
            length_source, "length", 3, CFG, "spire+toffoli-cancel",
            verify=True,
        )
        gate_record = cp.pass_records[-1]
        assert "tcount_nonincreasing" in gate_record.verified
        assert "clifford_t_output" in gate_record.verified
        assert "preserves_types" in cp.pass_records[0].verified

    def test_verify_catches_type_breaking_ir_pass(self, length_source):
        @register_pass
        class _BreakTypes(Pass):
            """Test-only: references an unbound variable."""

            name = "test-break-types"
            stage = IR

            def apply(self, ctx):
                ctx.stmt = Seq(
                    (ctx.stmt, If("__unbound_cond", Seq(())))
                )

        try:
            with pytest.raises((PassVerificationError, ReproError)):
                compile_source(
                    length_source, "length", 2, CFG,
                    "test-break-types,alloc,lower", verify=True,
                )
        finally:
            unregister_pass("test-break-types")

    def test_verify_catches_tcount_raising_gate_pass(self, length_source):
        @register_pass
        class _RaiseT(Pass):
            """Test-only: appends T gates to the Clifford+T expansion."""

            name = "test-raise-t"
            stage = GATES
            invariants = frozenset(
                {"tcount_nonincreasing", "clifford_t_output"}
            )

            def apply(self, ctx):
                from repro.circuit import Circuit, t, to_clifford_t

                expanded = ctx.circuit
                if not expanded.is_clifford_t():
                    expanded = to_clifford_t(expanded)
                gates = list(expanded.gates) + [t(0), t(0)]
                ctx.circuit = Circuit(
                    expanded.num_qubits, gates, dict(expanded.registers)
                )

        try:
            with pytest.raises(PassVerificationError) as err:
                compile_source(
                    length_source, "length", 2, CFG,
                    "none+test-raise-t", verify=True,
                )
            assert err.value.pass_name == "test-raise-t"
            assert err.value.invariant == "tcount_nonincreasing"
        finally:
            unregister_pass("test-raise-t")

    def test_unverified_pipeline_skips_checks(self, length_source):
        cp = compile_source(length_source, "length", 2, CFG, "spire")
        assert all(not r.verified for r in cp.pass_records)


class TestCacheKeys:
    BASE = dict(
        source="fun f[n]() -> uint { let out <- 0; return out; }",
        entry="f",
        config=CFG,
        depth=3,
    )

    def test_param_difference_changes_key(self):
        # regression: two pipelines sharing an optimizer name but
        # differing in circopt params must never collide
        keys = {
            task_key(**self.BASE, pipeline=canonical_pipeline(spec))
            for spec in (
                "none+peephole(window=4)",
                "none+peephole(window=64)",
                "none+peephole",
            )
        }
        assert len(keys) == 3

    def test_equivalent_spellings_share_a_key(self):
        assert task_key(
            **self.BASE, pipeline=canonical_pipeline("spire")
        ) == task_key(
            **self.BASE, pipeline=canonical_pipeline("flatten,narrow,alloc,lower")
        )

    def test_param_collision_regression_through_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        runner = BenchmarkRunner(CFG, cache=cache)
        wide = runner.measure("length", 2, "none+peephole(window=64)")
        narrow = runner.measure("length", 2, "none+peephole(window=1)")
        assert not narrow.cached  # a key collision would replay `wide`
        runner2 = BenchmarkRunner(CFG, cache=ArtifactCache(tmp_path))
        replay = runner2.measure("length", 2, "none+peephole(window=64)")
        assert replay.cached and replay.t == wide.t


class TestPrefixReplay:
    def test_late_pass_edit_reuses_compile(self, tmp_path, monkeypatch):
        cache_a = ArtifactCache(tmp_path)
        cold = BenchmarkRunner(CFG, cache=cache_a).measure(
            "length", 3, "spire+peephole"
        )
        assert not cold.cached and not cold.prefix_cached

        # a different late pass must resume from the stored prefix
        # without compiling anything
        import repro.benchsuite.runner as runner_mod

        runner2 = BenchmarkRunner(CFG, cache=ArtifactCache(tmp_path))

        def _no_compile(*args, **kwargs):
            raise AssertionError("pipeline prefix should have replayed")

        direct = BenchmarkRunner(CFG).optimize_circuit(
            "length", 3, "toffoli-cancel", "spire"
        )
        monkeypatch.setattr(runner_mod, "compile_checked", _no_compile)
        resumed = runner2.measure("length", 3, "spire+toffoli-cancel")
        monkeypatch.undo()
        assert resumed.prefix_cached == "flatten,narrow,alloc,lower"
        assert not resumed.cached
        # bit-identity with the direct (uncached) optimizer path
        assert resumed.t == direct.t_count

    def test_preset_measure_replays_synthesized_prefix(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        BenchmarkRunner(CFG, cache=cache).measure("length", 3, "spire+zx-like")
        # the post-lower prefix row equals a direct measure of the preset
        point = BenchmarkRunner(CFG, cache=ArtifactCache(tmp_path)).measure(
            "length", 3, "spire"
        )
        assert point.cached
        reference = BenchmarkRunner(CFG).measure("length", 3, "spire")
        assert (point.mcx, point.t, point.qubits) == (
            reference.mcx, reference.t, reference.qubits
        )
        assert (point.predicted_mcx, point.predicted_t) == (
            reference.predicted_mcx, reference.predicted_t
        )

    def test_full_pipeline_point_replays_warm(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cold = BenchmarkRunner(CFG, cache=cache).measure(
            "length", 2, "none+rotation-merge"
        )
        warm = BenchmarkRunner(CFG, cache=ArtifactCache(tmp_path)).measure(
            "length", 2, "none+rotation-merge"
        )
        assert warm.cached and warm.t == cold.t

    def test_measure_pipeline_equals_optimizer_baseline(self):
        runner = BenchmarkRunner(CFG)
        for optimizer in ("peephole", "toffoli-cancel", "zx-like"):
            point = runner.measure("length", 2, f"spire+{optimizer}")
            baseline = runner.optimize_circuit(
                "length", 2, optimizer, "spire"
            )
            assert point.t == baseline.t_count, optimizer

    @pytest.mark.parametrize("preset_first", [True, False])
    def test_baselines_resume_from_the_memo(self, monkeypatch, preset_first):
        """Without a cache, the baselines of one preset share its compiled
        circuit and one Toffoli expansion, whether the preset was measured
        first or the first baseline compiled it into the memo."""
        import repro.benchsuite.runner as runner_mod
        import repro.circuit.decompose as decompose

        calls = {"compile": 0, "toffoli": 0}
        real_compile = runner_mod.compile_checked
        real_toffoli = decompose.to_toffoli

        def counting_compile(*args, **kwargs):
            calls["compile"] += 1
            return real_compile(*args, **kwargs)

        def counting_toffoli(*args, **kwargs):
            calls["toffoli"] += 1
            return real_toffoli(*args, **kwargs)

        monkeypatch.setattr(runner_mod, "compile_checked", counting_compile)
        monkeypatch.setattr(decompose, "to_toffoli", counting_toffoli)
        runner = BenchmarkRunner(CFG)
        if preset_first:
            runner.measure("length", 2, "none")
        points = [
            runner.measure("length", 2, f"none+{optimizer}")
            for optimizer in ("peephole", "rotation-merge", "zx-like")
        ]
        preset = runner.measure("length", 2, "none")
        assert preset.cached
        first = "alloc,lower" if preset_first else ""
        assert [p.prefix_cached for p in points] == [first] + ["alloc,lower"] * 2
        for point in points:
            assert not point.cached
            assert (point.predicted_mcx, point.predicted_t) == (
                preset.predicted_mcx, preset.predicted_t
            )
        assert calls == {"compile": 1, "toffoli": 1}

    def test_memo_and_disk_resume_build_equal_rows(self, tmp_path):
        """A baseline resumed from the memo, resumed from disk, or compiled
        cold builds the same row outside the volatile keys."""
        memo = BenchmarkRunner(CFG)
        memo.measure("length", 2, "spire")
        from_memo = memo.measure("length", 2, "spire+toffoli-cancel")
        BenchmarkRunner(CFG, cache=ArtifactCache(tmp_path)).measure(
            "length", 2, "spire"
        )
        from_disk = BenchmarkRunner(CFG, cache=ArtifactCache(tmp_path)).measure(
            "length", 2, "spire+toffoli-cancel"
        )
        cold = BenchmarkRunner(CFG).measure("length", 2, "spire+toffoli-cancel")
        assert from_memo.prefix_cached == "flatten,narrow,alloc,lower"
        assert from_disk.prefix_cached == "flatten,narrow,alloc,lower"
        assert not cold.prefix_cached
        rows = stable_rows([p.row() for p in (from_memo, from_disk, cold)])
        assert rows == rows[:1] * 3
        for point in (from_memo, from_disk, cold):
            assert point.compile_seconds == sum(point.timings.values())

    def test_repeated_gate_pass_times_add_up(self, tmp_path, length_source):
        """A gate pass that runs twice counts both runs in
        ``timings["opt:<name>"]``, on the cold and the resumed route."""
        cp = compile_source(length_source, "length", 2, CFG, "none+peephole+peephole")
        runs = [r.seconds for r in cp.pass_records if r.name == "peephole"]
        assert len(runs) == 2
        assert cp.timings["opt:peephole"] == pytest.approx(sum(runs))
        cache = ArtifactCache(tmp_path)
        BenchmarkRunner(CFG, cache=cache).measure("length", 2, "none")
        resumed = BenchmarkRunner(CFG, cache=cache).measure(
            "length", 2, "none+peephole+peephole"
        )
        assert resumed.prefix_cached == "alloc,lower"
        assert resumed.compile_seconds == pytest.approx(
            sum(resumed.timings.values())
        )


class TestBisection:
    #: heap_cells == 2**addr_width - 1 so random pointer inputs stay in
    #: the heap (the fuzz harness's config discipline)
    ORACLE_CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=7)

    def _broken_pass(self):
        @register_pass
        class _Unguard(Pass):
            """Test-only semantic defect: drops every if guard."""

            name = "test-unguard"
            stage = IR
            invariants = frozenset({SEMANTICS_PRESERVING})

            def apply(self, ctx):
                def strip(stmt):
                    if isinstance(stmt, If):
                        return strip(stmt.body)
                    if isinstance(stmt, Seq):
                        return Seq(tuple(strip(s) for s in stmt.stmts))
                    if hasattr(stmt, "setup"):  # With
                        from dataclasses import replace

                        return replace(
                            stmt,
                            setup=strip(stmt.setup),
                            body=strip(stmt.body),
                        )
                    return stmt

                ctx.stmt = strip(ctx.stmt)

        return _Unguard

    def test_failure_signature_names_offending_pass(self, length_source):
        from repro.fuzz.oracles import OracleConfig, OracleFailure, run_oracles
        from repro.lang.parser import parse_program

        self._broken_pass()
        try:
            cfg = OracleConfig(
                compiler=self.ORACLE_CFG,
                optimizations=(
                    "none", "flatten,test-unguard,alloc,lower"
                ),
                check_optimizers=False,
                check_statevector=False,
            )
            with pytest.raises(OracleFailure) as err:
                run_oracles(
                    parse_program(length_source), "length", 2, cfg,
                    input_seed=1,
                )
            assert err.value.oracle.endswith("@pass:test-unguard")
        finally:
            unregister_pass("test-unguard")

    def test_healthy_pipelines_have_no_pass_annotation(self, length_source):
        from repro.fuzz.oracles import OracleConfig, run_oracles
        from repro.lang.parser import parse_program

        cfg = OracleConfig(
            compiler=self.ORACLE_CFG,
            optimizations=("none", "spire"),
            check_optimizers=False,
            check_statevector=False,
        )
        stats = run_oracles(
            parse_program(length_source), "length", 2, cfg, input_seed=1
        )
        assert stats["t"] > 0


class TestPassesCli:
    def test_passes_list_smoke(self, capsys):
        assert main(["passes", "--list"]) == 0
        out = capsys.readouterr().out
        assert "flatten" in out and "stage=ir" in out
        assert "peephole" in out and "stage=gates" in out
        assert "tcount_nonincreasing" in out
        assert "spire" in out and "flatten,narrow,alloc,lower" in out

    def test_compile_pipeline_flag(self, tmp_path, length_source, capsys):
        path = tmp_path / "length.twr"
        path.write_text(length_source)
        assert main([
            "compile", str(path), "--entry", "length", "--size", "2",
            "--word-width", "3", "--addr-width", "3", "--heap-cells", "5",
            "--pipeline", "spire+peephole", "--verify-passes",
        ]) == 0
        out = capsys.readouterr().out
        assert "flatten,narrow,alloc,lower,peephole" in out
        assert "pass flatten+narrow" in out

    def test_bench_rejects_bad_pass_parameter_before_running(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "arts"
        assert main([
            "bench", "--pipeline", "none+peephole(bogus=1)", "--out",
            str(out_dir), "--quiet", "--benchmarks", "length", "--depths", "2",
        ]) == 1
        assert "bad parameters for pass 'peephole'" in capsys.readouterr().err
        assert not out_dir.exists()  # no task ran, no artifact written

    def test_bench_pipeline_prefix_replay(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        out_dir = str(tmp_path / "arts")
        base = ["bench", "--cache-dir", cache, "--out", out_dir, "--quiet",
                "--benchmarks", "length", "--depths", "2..2"]
        assert main([*base, "--pipeline", "spire+peephole"]) == 0
        # edited late pass: every point must resume from the cached prefix
        assert main([
            *base, "--pipeline", "spire+toffoli-cancel", "--require-prefix",
        ]) == 0
        out = capsys.readouterr().out
        assert "resumed from a cached pipeline prefix" in out
        # and a verbatim re-run replays fully warm
        assert main([
            *base, "--pipeline", "spire+toffoli-cancel", "--require-cached",
        ]) == 0
