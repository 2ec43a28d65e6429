"""Per-pass equivalence: registered passes vs. the monolithic optimizers.

Satellite of the pass-manager refactor:

* ``flatten`` and ``narrow`` as individual registered passes, composed in
  a pipeline, must reproduce the monolithic ``OPTIMIZATIONS["spire"]``
  **bit-identically** — same core IR, same exact-model T-counts — across
  every Table-1 benchmark and 50 fuzz-generated programs.  (The pass
  manager fuses adjacent spire-family passes into one Figure-22
  traversal, because sequential tree walks are *not* equivalent to the
  paper's combined pass; this suite is what pins that fusion down.)
* every recorded (benchmark, depth, optimizer) seed T-count triple must
  reproduce through the pass manager's pipeline path
  (``none+<optimizer>`` and the preset × optimizer products).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.benchsuite import BenchmarkRunner, SOURCES, get_entry, get_source, is_unsized
from repro.compiler import compile_source, infer_cell_bits
from repro.config import CompilerConfig
from repro.cost.exact import exact_counts
from repro.fuzz.generator import GenConfig, generate_workload, program_seed
from repro.ir.typecheck import infer_types
from repro.lang.desugar import lower_entry
from repro.lang.parser import parse_program
from repro.opt.spire import OPTIMIZATIONS

CFG = CompilerConfig(word_width=3, addr_width=3, heap_cells=6)

DATA = pathlib.Path(__file__).resolve().parent / "data" / "seed_tcounts.json"
SEED = json.loads(DATA.read_text())

#: (pipeline spec, monolithic optimizer) pairs that must agree exactly
PIPELINE_VS_MONOLITHIC = [
    ("flatten,narrow,alloc,lower", "spire"),
    ("flatten,alloc,lower", "flatten"),
    ("narrow,alloc,lower", "narrow"),
    ("alloc,lower", "none"),
]


def _exact_t(stmt, table, param_types):
    """Exact-model T-count of a core statement (no circuit expansion)."""
    var_types = infer_types(stmt, table, param_types)
    cell_bits = infer_cell_bits(stmt, table, var_types)
    return exact_counts(stmt, table, var_types, cell_bits)[1]


class TestTable1Equivalence:
    @pytest.mark.parametrize("name", sorted(SOURCES))
    @pytest.mark.parametrize("spec,mono", PIPELINE_VS_MONOLITHIC)
    def test_pipeline_matches_monolithic(self, name, spec, mono):
        program = parse_program(get_source(name))
        size = None if is_unsized(name) else 3
        lowered = lower_entry(program, get_entry(name), size, CFG)
        reference = OPTIMIZATIONS[mono](lowered.stmt)
        compiled = compile_source(
            get_source(name), get_entry(name), size, CFG, spec
        )
        assert compiled.core == reference, f"{name}: IR differs for {spec}"
        assert compiled.t_complexity() == _exact_t(
            reference, lowered.table, lowered.param_types
        ), f"{name}: T-count differs for {spec}"


class TestFuzzSeedEquivalence:
    SEEDS = [program_seed(7, index) for index in range(50)]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fused_passes_match_monolithic_spire(self, seed):
        gen = GenConfig()
        workload = generate_workload(seed, gen)
        lowered = lower_entry(workload.program, "main", None, None)
        for spec, mono in PIPELINE_VS_MONOLITHIC:
            reference = OPTIMIZATIONS[mono](lowered.stmt)
            compiled = compile_source(
                # compile through the real front end so the pipeline sees
                # exactly what the monolithic path saw
                _render(workload), "main", None, lowered.table.config, spec
            )
            assert compiled.core == reference, (seed, spec)
            assert compiled.t_complexity() == _exact_t(
                reference, lowered.table, lowered.param_types
            ), (seed, spec)


def _render(workload):
    from repro.fuzz.generator import render_program

    return render_program(workload.program)


SLOW_THRESHOLD = 20000
_FAST_TRIPLES = sorted(
    key for key, count in SEED["counts"].items() if count <= 4000
)


class TestSeedTcountsThroughPassManager:
    """Preset × optimizer products reproduce the recorded seed T-counts."""

    _RUNNER = None

    @classmethod
    def runner(cls) -> BenchmarkRunner:
        if cls._RUNNER is None:
            cls._RUNNER = BenchmarkRunner(CompilerConfig(**SEED["config"]))
        return cls._RUNNER

    @pytest.mark.parametrize("key", _FAST_TRIPLES)
    def test_pipeline_measure_matches_seed(self, key):
        name, depth, optimizer = key.split("|")
        depth_val = None if depth == "None" else int(depth)
        suffix = (
            "greedy-search(preprocess_only=true)"
            if optimizer == "greedy-search"
            else optimizer
        )
        point = self.runner().measure(name, depth_val, f"none+{suffix}")
        assert point.t == SEED["counts"][key], key

    @pytest.mark.parametrize("optimization", ["spire", "flatten", "narrow"])
    @pytest.mark.parametrize(
        "optimizer",
        ["peephole", "rotation-merge", "toffoli-cancel", "zx-like"],
    )
    def test_preset_product_matches_direct_path(self, optimization, optimizer):
        runner = self.runner()
        point = runner.measure("length", 2, f"{optimization}+{optimizer}")
        baseline = runner.optimize_circuit("length", 2, optimizer, optimization)
        assert point.t == baseline.t_count
