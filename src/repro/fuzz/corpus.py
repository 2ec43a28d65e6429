"""The deterministic regression corpus and the coverage-guided scheduler.

Two kinds of artifacts live under ``tests/corpus/``:

* ``seeds.json`` — a manifest of generator seeds (plus knobs) that the
  fast test tier replays on every push.  Growing it is free: append an
  entry; the generator is deterministic, so the workload never drifts.
* ``cases/*.json`` — shrunk reproducers.  When a fuzz run finds a defect,
  the minimized program is saved here (``python -m repro fuzz
  --save-failures tests/corpus/cases``); after the fix lands, the case
  stays as a permanent regression test replayed by the same tier.

Cases store rendered Tower *source* (not pickled ASTs): the renderer/parser
round-trip is itself oracle-checked, sources diff nicely in review, and a
reproducer stays readable in twenty years.

The second half of the module schedules seeds by *coverage*: each checked
seed runs under the :mod:`repro.fuzz.coverage` collector, seeds that
exercise new branch arcs in ``repro.ir``/``repro.compiler``/``repro.circopt``
join a frontier, and subsequent candidates are derived from frontier
entries by deterministic generator-knob mutations instead of drawing the
next uniform seed.  For the same program budget this reaches strictly more
cumulative branch coverage than uniform seeding (the uniform stream never
toggles knobs such as ``hadamard_prob`` or ``heap_shapes``, so whole
lowering paths stay dark); :func:`uniform_run` exists precisely to log
that comparison.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from ..config import CompilerConfig
from .coverage import CoverageMap, covered_run
from .generator import GenConfig, HeapShapeInfo, program_seed
from .oracles import OracleConfig, OracleReport, check_generated, run_oracles


@dataclass
class CorpusCase:
    """One checked-in reproducer."""

    name: str
    source: str
    entry: str = "main"
    size: Optional[int] = None
    oracle: Optional[str] = None       #: the oracle it originally failed
    description: str = ""
    seed: Optional[int] = None         #: generator seed it was found with
    input_seed: int = 0
    compiler: Dict[str, Any] = field(default_factory=dict)
    #: heap-shape plan of the workload ([{kind, param, bound}, ...])
    shapes: List[Dict[str, Any]] = field(default_factory=list)

    def compiler_config(self, default: CompilerConfig) -> CompilerConfig:
        if not self.compiler:
            return default
        return CompilerConfig(**self.compiler)

    def shape_infos(self) -> Tuple[HeapShapeInfo, ...]:
        return tuple(HeapShapeInfo(**shape) for shape in self.shapes)


def save_case(case: CorpusCase, directory: os.PathLike) -> Path:
    """Write one reproducer as pretty JSON (atomic, stable key order)."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{case.name}.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(asdict(case), indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


def load_corpus(directory: os.PathLike) -> List[CorpusCase]:
    """Every reproducer in a corpus directory, in stable name order."""
    directory = Path(directory)
    cases: List[CorpusCase] = []
    if not directory.is_dir():
        return cases
    for path in sorted(directory.glob("*.json")):
        cases.append(CorpusCase(**json.loads(path.read_text())))
    return cases


def replay_case(
    case: CorpusCase, cfg: Optional[OracleConfig] = None
) -> Dict[str, Any]:
    """Re-run every oracle on a reproducer (raises OracleFailure if broken)."""
    from ..lang.parser import parse_program

    cfg = cfg or OracleConfig()
    cfg = replace(cfg, compiler=case.compiler_config(cfg.compiler))
    program = parse_program(case.source)
    return run_oracles(
        program,
        case.entry,
        case.size,
        cfg,
        input_seed=case.input_seed,
        shapes=case.shape_infos(),
    )


def load_seed_manifest(path: os.PathLike) -> List[Tuple[int, GenConfig]]:
    """Parse ``seeds.json`` into (seed, generator knobs) pairs."""
    data = json.loads(Path(path).read_text())
    defaults = data.get("gen", {})
    entries: List[Tuple[int, GenConfig]] = []
    for entry in data["entries"]:
        knobs = dict(defaults)
        knobs.update({k: v for k, v in entry.items() if k != "seed"})
        entries.append((int(entry["seed"]), GenConfig(**knobs)))
    return entries


def save_seed_manifest(
    entries: List[Tuple[int, GenConfig]],
    path: os.PathLike,
    comment: str = "",
) -> Path:
    """Write (seed, knobs) pairs in the ``seeds.json`` manifest format.

    Only knobs that differ from the :class:`GenConfig` defaults are stored,
    so manifests stay reviewable and forward-compatible.
    """
    defaults = asdict(GenConfig())
    rows: List[Dict[str, Any]] = []
    for seed, gen in entries:
        row: Dict[str, Any] = {"seed": seed}
        for key, value in asdict(gen).items():
            if value != defaults[key]:
                row[key] = value
        rows.append(row)
    payload: Dict[str, Any] = {"version": 1, "gen": {}, "entries": rows}
    if comment:
        payload["comment"] = comment
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    tmp.replace(path)
    return path


# ------------------------------------------------- coverage-guided schedule
@dataclass
class ScheduledSeed:
    """A frontier entry: a seed whose run covered new branch arcs."""

    seed: int
    gen: GenConfig
    novel_branches: int


@dataclass
class ScheduleResult:
    """The outcome of a scheduled fuzzing run."""

    mode: str                       #: ``"uniform"`` or ``"coverage-guided"``
    reports: List[OracleReport]
    frontier: List[ScheduledSeed]
    coverage: CoverageMap

    def branch_coverage(self) -> int:
        return len(self.coverage.arcs)

    def summary(self) -> str:
        counts = self.coverage.counts()
        failures = sum(1 for report in self.reports if not report.ok)
        return (
            f"{self.mode}: {len(self.reports) - failures}/{len(self.reports)} "
            f"passed, cumulative coverage {counts['branches']} branches / "
            f"{counts['statements']} statements, frontier {len(self.frontier)}"
        )


#: deterministic round-robin of generator-knob mutations used by the
#: coverage-guided scheduler; cycling (rather than sampling) guarantees
#: every knob family gets explored within one cycle of the frontier
_KNOB_MUTATIONS: Tuple[Callable[[GenConfig], GenConfig], ...] = (
    lambda g: replace(g, hadamard_prob=0.3 if g.hadamard_prob == 0 else 0.0),
    lambda g: replace(g, heap_shapes=not g.heap_shapes),
    lambda g: replace(g, max_depth=min(g.max_depth + 1, 5)),
    lambda g: replace(g, max_depth=max(g.max_depth - 1, 1)),
    lambda g: replace(g, max_block=min(g.max_block + 2, 6)),
    lambda g: replace(g, max_rec_bound=min(g.max_rec_bound + 1, 4)),
)

ProgressFn = Callable[[int, int, OracleReport], None]


def uniform_run(
    base_seed: int,
    count: int,
    gen: GenConfig = GenConfig(),
    cfg: OracleConfig = OracleConfig(),
    progress: Optional[ProgressFn] = None,
    deadline: Optional[float] = None,
) -> ScheduleResult:
    """The uniform baseline: seeds 0..count-1 with fixed knobs, measured.

    ``deadline`` is an absolute ``time.perf_counter()`` timestamp; the run
    stops scheduling new seeds once it has passed (the in-flight seed
    always finishes, so reports are never torn).
    """
    coverage = CoverageMap()
    reports: List[OracleReport] = []
    frontier: List[ScheduledSeed] = []
    for index in range(count):
        seed = program_seed(base_seed, index)
        report, cov = covered_run(check_generated, seed, gen, cfg)
        novel = coverage.novel_arcs(cov)
        if novel:
            frontier.append(ScheduledSeed(seed, gen, len(novel)))
        coverage.merge(cov)
        reports.append(report)
        if progress is not None:
            progress(index + 1, count, report)
        if deadline is not None and time.perf_counter() > deadline:
            break
    return ScheduleResult("uniform", reports, frontier, coverage)


def coverage_guided_run(
    base_seed: int,
    count: int,
    gen: GenConfig = GenConfig(),
    cfg: OracleConfig = OracleConfig(),
    progress: Optional[ProgressFn] = None,
    deadline: Optional[float] = None,
) -> ScheduleResult:
    """Coverage-guided scheduling of the same program budget.

    The first seeds come from the uniform stream.  Once a frontier of
    coverage-novel seeds exists, 70% of the budget mutates frontier
    entries: a child seed is derived deterministically from its parent and
    the parent's generator knobs go through the round-robin mutations of
    ``_KNOB_MUTATIONS``.  Everything is driven by ``random.Random(base_seed)``,
    so a run is exactly reproducible; ``deadline`` (absolute
    ``time.perf_counter()`` timestamp) stops it early like ``uniform_run``.
    """
    rng = random.Random(base_seed)
    coverage = CoverageMap()
    reports: List[OracleReport] = []
    frontier: List[ScheduledSeed] = []
    next_uniform = 0
    children = 0
    while len(reports) < count:
        if frontier and rng.random() < 0.7:
            parent = frontier[rng.randrange(len(frontier))]
            mutation = _KNOB_MUTATIONS[children % len(_KNOB_MUTATIONS)]
            children += 1
            seed = program_seed(parent.seed, children)
            candidate_gen = mutation(parent.gen)
        else:
            seed = program_seed(base_seed, next_uniform)
            next_uniform += 1
            candidate_gen = gen
        report, cov = covered_run(check_generated, seed, candidate_gen, cfg)
        novel = coverage.novel_arcs(cov)
        if novel:
            frontier.append(ScheduledSeed(seed, candidate_gen, len(novel)))
        coverage.merge(cov)
        reports.append(report)
        if progress is not None:
            progress(len(reports), count, report)
        if deadline is not None and time.perf_counter() > deadline:
            break
    return ScheduleResult("coverage-guided", reports, frontier, coverage)
