"""The compiler frontend memo and the runner's bounded memos.

A *checked entry* (``check_entry``: desugar, then the strict Figure 20
typecheck) is what every compile starts from.  A runner's
:class:`~repro.compiler.pipeline.Frontend` keeps a bounded number of parsed
programs and checked entries; its compiled and cache-loaded circuits are
bounded too.  Each runner has its own memos: two runners never share a
parse.
"""

from __future__ import annotations

from typing import List

import pytest

import repro.benchsuite.runner as runner_mod
from repro.benchsuite import ArtifactCache, BenchmarkRunner
from repro.benchsuite.parallel import GRID_SELECTORS, paper_grid, stable_rows
from repro.benchsuite.programs import get_source
from repro.benchsuite.runner import default_depths
from repro.bounded import BoundedCache
from repro.compiler import pipeline
from repro.compiler.pipeline import (
    FRONTEND_MEMO_MAX,
    Frontend,
    check_entry,
    compile_checked,
    compile_core,
    compile_program,
)
from repro.config import TINY
from repro.errors import LexError, ParseError, TypeCheckError
from repro.ir.core import Assign, AtomE, Var
from repro.lang.parser import parse_program
from repro.passes import resolve_pipeline
from repro.types import UINT, TypeTable


def _count_parses(monkeypatch) -> List[str]:
    sources: List[str] = []
    real = pipeline.parse_program

    def counting(source):
        sources.append(source)
        return real(source)

    monkeypatch.setattr(pipeline, "parse_program", counting)
    return sources


def test_fresh_runners_parse_again(tmp_path, monkeypatch):
    """No frontend work is shared across runners: the ``cold`` benchmark
    builds one runner per request and must pay every layer each time."""
    parses = _count_parses(monkeypatch)
    for index in range(2):
        runner = BenchmarkRunner(TINY, cache=ArtifactCache(tmp_path / str(index)))
        runner.measure("length", 2, "spire")
    assert parses == [get_source("length")] * 2


def test_one_runner_parses_a_source_once(monkeypatch):
    parses = _count_parses(monkeypatch)
    runner = BenchmarkRunner(TINY)
    for depth in (1, 2):
        for optimization in ("none", "spire"):
            runner.measure("length", depth, optimization)
    assert parses == [get_source("length")]


def test_unsized_entry_binds_no_size():
    """An unsized entry's checked entry is one, whatever size is asked."""
    frontend = Frontend()
    source = get_source("pop_front")
    checked = frontend.checked(source, "pop_front", None, TINY)
    assert frontend.checked(source, "pop_front", 3, TINY) is checked
    assert checked.lowered.size is None
    sized = frontend.checked(get_source("length"), "length", 2, TINY)
    assert sized.lowered.size == 2
    assert frontend.checked(get_source("length"), "length", 3, TINY) is not sized


def test_frontend_memo_is_bounded():
    frontend = Frontend()
    base = get_source("length")
    sources = [f"{base}// variant {i}\n" for i in range(FRONTEND_MEMO_MAX + 5)]
    for source in sources:
        frontend.checked(source, "length", 1, TINY)
    assert len(frontend._programs) == FRONTEND_MEMO_MAX
    assert len(frontend._checked) == FRONTEND_MEMO_MAX
    newest = frontend.program(sources[-1])
    assert frontend.program(sources[-1]) is newest


def test_failures_are_not_memoized():
    frontend = Frontend()
    with pytest.raises((LexError, ParseError)):
        frontend.program("fun main( {")
    source = "fun main(x: uint) -> uint { let y <- z; return y; }\n"
    for _ in range(2):
        with pytest.raises(TypeCheckError):
            frontend.checked(source, "main", None, TINY)
    assert len(frontend._checked) == 0


def test_compile_checked_charges_the_strict_check(monkeypatch):
    """The compile of a checked entry runs no strict typecheck of its own,
    yet its ``optimize`` timing (and so ``compile_seconds``) includes the
    one the entry carries, and its circuit is the direct compile's."""
    program = parse_program(get_source("length"))
    checked = check_entry(program, "length", 2, TINY)
    assert checked.check_seconds > 0

    strict: List[object] = []
    real = pipeline.check_program

    def counting(*args, **kwargs):
        if not kwargs.get("relaxed"):
            strict.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "check_program", counting)
    import repro.passes.manager as manager_mod

    monkeypatch.setattr(manager_mod, "check_program", counting)
    compiled = compile_checked(checked, "spire")
    assert strict == []
    assert compiled.timings["optimize"] >= checked.check_seconds
    direct = compile_program(program, "length", 2, TINY, "spire")
    assert len(strict) == 1  # compile_program checks the program it lowers
    assert compiled.circuit.t_complexity() == direct.circuit.t_complexity()
    assert compiled.circuit.mcx_complexity() == direct.circuit.mcx_complexity()
    assert set(compiled.timings) == set(direct.timings)


def test_compile_core_still_checks_raw_core_ir():
    """Raw core IR (the fuzz oracles, tests and CLI pass it) is checked
    strictly before the pipeline runs."""
    table = TypeTable(TINY)
    unbound = Assign("y", AtomE(Var("nowhere")))
    with pytest.raises(TypeCheckError):
        compile_core(unbound, table, {"x": UINT})


@pytest.mark.parametrize("selector", GRID_SELECTORS)
def test_compiled_memo_keeps_every_reuse_of_a_paper_grid(selector):
    """A serial sweep of a paper grid at its default sizes (``repro bench``
    without a cache) compiles each distinct preset circuit once: the
    optimizer baselines, listed after every preset, still find the circuit
    they resume from."""
    tasks = paper_grid(selector, default_depths(), list(range(2, 9)))
    keys = [
        (task.name, task.depth, resolve_pipeline(task.optimization).compile_prefix().spec())
        for task in tasks
    ]
    memo = BoundedCache(runner_mod.COMPILED_MEMO_MAX)
    builds: List[object] = []
    for key in keys:
        memo.get(key, lambda: builds.append(key) or key)
    assert len(builds) == len(set(keys))


def test_compiled_memo_is_bounded_and_recompiles_identically(monkeypatch):
    """More distinct compiles than the bound keep only the bound; an evicted
    point compiles again, to the same row."""
    bound = 8
    monkeypatch.setattr(runner_mod, "COMPILED_MEMO_MAX", bound)
    runner = BenchmarkRunner(TINY)
    points = [
        ("length", depth, optimization)
        for depth in (1, 2, 3)
        for optimization in ("none", "spire", "flatten", "narrow")
    ]
    assert len(points) > bound
    first = [runner.measure(*point).row() for point in points]
    assert len(runner._compiled) == bound
    assert runner._compiled.lookup(("length", 1, "alloc,lower")) is None
    again = runner.measure(*points[0])
    assert not again.cached  # evicted: compiled afresh
    assert stable_rows([again.row()]) == stable_rows([first[0]])
    assert len(runner._compiled) == bound


def test_loaded_circuit_memo_is_bounded(tmp_path, monkeypatch):
    monkeypatch.setattr(runner_mod, "COMPILED_MEMO_MAX", 8)
    cache = ArtifactCache(tmp_path)
    points = [("length", depth, "none") for depth in range(1, 11)]
    for name, depth, optimization in points:
        BenchmarkRunner(TINY, cache=cache).measure(name, depth, optimization)
    fresh = BenchmarkRunner(TINY, cache=cache)
    circuits = [fresh._held(name, depth, "alloc,lower")[0] for name, depth, _ in points]
    assert len(fresh._loaded) == 8
    assert len(fresh._compiled) == 0  # every circuit came from disk
    # the newest point is still the same object (the decomposition cache
    # keys on circuit identity)
    assert fresh._held("length", 10, "alloc,lower")[0] is circuits[-1]
