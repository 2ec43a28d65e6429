"""Command-line interface: ``python -m repro <command> file.twr``.

Commands:

* ``compile`` — compile a Tower program and print complexity counts
  (optionally emitting the circuit in .qc format).  Like ``analyze``,
  ``optimizers`` and ``resources`` it takes ``--optimize SPEC``, where a
  spec is a preset (``none|flatten|narrow|spire``), a ``preset+gatepass``
  form (``spire+peephole``) or a raw pass list;
* ``analyze`` — run the Section 5 cost model without building the circuit;
  ``--symbolic`` instead fits closed-form T/MCX bounds in the depth bound
  ``d`` (with per-function recurrences) from the static analysis;
* ``lint`` — static analysis findings with stable ``RPA...`` codes
  (uncomputation safety, dead code, superposition budget); exit code 1
  on error-severity findings, 3 on an internal analysis error;
* ``optimizers`` — run the circuit-optimizer baselines on the compiled
  circuit and compare T-counts;
* ``resources`` — full resource report (T-count, T-depth, qubits);
* ``passes`` — list the registered pipeline passes (stage, declared
  invariants, description) and the named presets;
* ``bench`` — reproduce the paper's evaluation grids (tables/figures)
  through the parallel, cache-backed grid runner, writing JSON artifacts;
  ``--pipeline`` sweeps a custom pass pipeline instead of a paper grid,
  with pass-granular warm replays from the artifact cache;
* ``fuzz`` — differential fuzzing: generated well-typed Tower programs
  checked end-to-end (interpreter vs. circuit vs. statevector, reversal
  round-trips, optimizer semantics and T-counts, exact cost model), with
  deterministic seeds, automatic shrinking of failures, and pipeline
  bisection of semantic defects; ``--corpus`` replays the checked-in
  reproducer corpus, ``--verify-passes`` adds between-pass invariant
  checks to every compile.

Examples::

    python -m repro compile prog.twr --entry length --size 5 \\
        --optimize "flatten,narrow,alloc,lower,peephole(window=32)" \\
        --verify-passes --emit out.qc
    python -m repro bench --select fig15 table1 --jobs 8 \\
        --cache-dir .bench-cache --out bench_artifacts
    python -m repro bench --pipeline spire+zx-like --cache-dir .bench-cache
    python -m repro fuzz --seed 0 --count 200 --jobs 4 \\
        --save-failures tests/corpus/cases
    python -m repro fuzz --corpus tests/corpus --verify-passes
    python -m repro lint prog.twr --entry length
    python -m repro lint --table1 --json
    python -m repro analyze prog.twr --entry length \\
        --symbolic --optimize spire
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from ._version import __version__
from .circuit import DecompositionCache, qc_format
from .compiler import compile_source
from .config import CompilerConfig
from .cost import PaperCostModel
from .cost.resources import estimate_resources
from .errors import AnalysisError, ReproError
from .lang import lower_source
from .passes import (
    GATES,
    PassError,
    PassManager,
    canonical_pipeline,
    get_pass_class,
    pass_names,
    resolve_pipeline,
    rewrite_ir,
)


def _pipeline_spec(text: str) -> str:
    """The argparse ``type`` of ``--optimize``: checks the spec when the
    arguments are parsed, so a bad one exits 2 like any bad argument."""
    try:
        canonical_pipeline(text)
    except PassError as err:
        raise argparse.ArgumentTypeError(str(err)) from err
    return text


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("file", help="Tower source file")
    parser.add_argument("--entry", required=True, help="entry function name")
    parser.add_argument("--size", type=int, default=None,
                        help="recursion bound for the entry function")
    parser.add_argument("--optimize", type=_pipeline_spec, default="none",
                        metavar="SPEC",
                        help="pipeline: a preset (none, flatten, narrow, "
                             "spire), a preset+gatepass form such as "
                             "'spire+peephole', or a raw pass list such as "
                             "'flatten,narrow,alloc,lower,peephole' "
                             "(default: none)")
    parser.add_argument("--word-width", type=int, default=4)
    parser.add_argument("--addr-width", type=int, default=4)
    parser.add_argument("--heap-cells", type=int, default=8)


def _config(args) -> CompilerConfig:
    return CompilerConfig(
        word_width=args.word_width,
        addr_width=args.addr_width,
        heap_cells=args.heap_cells,
    )


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


#: the exit-code contract shared by ``repro lint`` and
#: ``repro analyze --symbolic``: findings are data (1), broken invocations
#: are usage errors (2), and a defect inside the analyses themselves is
#: distinguishable from both (3)
EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INTERNAL = 3


def cmd_compile(args) -> int:
    source = _read(args.file)
    compiled = compile_source(
        source, args.entry, args.size, _config(args), args.optimize,
        verify=args.verify_passes,
    )
    print(f"entry         : {args.entry}"
          + (f"[{args.size}]" if args.size is not None else ""))
    print(f"optimization  : {args.optimize}")
    print(f"pipeline      : {compiled.pipeline}")
    print(f"qubits        : {compiled.num_qubits()}")
    print(f"MCX-complexity: {compiled.mcx_complexity()}")
    print(f"T-complexity  : {compiled.t_complexity()}")
    if args.show_passes or args.verify_passes:
        for record in compiled.pass_records:
            checked = (
                f"  verified: {', '.join(record.verified)}"
                if record.verified else ""
            )
            print(f"  pass {record.name:<18} [{record.stage:<5}] "
                  f"{record.seconds * 1000:8.2f} ms{checked}")
    if args.emit:
        qc_format.dump(compiled.circuit, args.emit)
        print(f"wrote {args.emit}")
    return 0


def cmd_passes(args) -> int:
    from .passes import PRESETS, canonical_pipeline, pass_catalog

    print("registered passes (pipeline order: ir -> alloc,lower -> gates):")
    for row in pass_catalog():
        invariants = ", ".join(row["invariants"]) or "-"
        fused = f"  (fuses via {row['engine']!r} engine)" if row["engine"] else ""
        print(f"  {row['name']:<16} stage={row['stage']:<6} "
              f"invariants: {invariants}{fused}")
        if row["description"]:
            print(f"      {row['description']}")
    print("\npresets (the historical optimization levels):")
    for preset in sorted(PRESETS):
        print(f"  {preset:<10} -> {canonical_pipeline(preset)}")
    print("\nappend gate passes with '+', e.g. spire+peephole(window=32)")
    return 0


def cmd_analyze(args) -> int:
    source = _read(args.file)
    if args.symbolic:
        return _analyze_symbolic(args, source)
    lowered = lower_source(source, args.entry, args.size, _config(args))
    from .compiler.pipeline import infer_cell_bits
    from .ir import check_program

    pipeline = resolve_pipeline(args.optimize)
    stmt = rewrite_ir(pipeline, lowered.stmt, lowered.table, lowered.param_types)
    # rewritten programs satisfy a relaxed S-If domain condition only
    var_types = check_program(stmt, lowered.table, lowered.param_types,
                              relaxed=bool(pipeline.ir_passes)).types
    cell_bits = infer_cell_bits(stmt, lowered.table, var_types)
    model = PaperCostModel(lowered.table, var_types, cell_bits)
    report = model.report(stmt)
    print(f"cost model (Section 5), optimization={args.optimize}:")
    print(f"  C_MCX = {report.mcx}")
    print(f"  C_T   = {report.t}")
    return EXIT_OK


def _analyze_symbolic(args, source: str) -> int:
    """``repro analyze --symbolic``: closed-form bounds in the depth
    bound ``d``, sharing the lint report path (same JSON conventions,
    same exit-code contract)."""
    import json

    from .analysis import symbolic_cost
    from .lang.parser import parse_program

    try:
        program = parse_program(source)
        report = symbolic_cost(
            program, args.entry, args.optimize, _config(args)
        )
    except AnalysisError as err:
        print(f"internal analysis error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    if args.json:
        payload = {
            "entry": report.entry,
            "pipeline": report.pipeline,
            "size_param": report.size_param,
            "functions": report.rows(),
        }
        print(json.dumps(payload, indent=1, sort_keys=True))
    else:
        print(report.render_human())
    return EXIT_OK


def cmd_lint(args) -> int:
    import json

    from .analysis import catalog_rows, lint_source

    if args.codes:
        rows = catalog_rows()
        if args.json:
            print(json.dumps(rows, indent=1, sort_keys=True))
        else:
            print("diagnostic codes (repro lint):")
            for row in rows:
                print(f"  {row['code']}  [{row['severity']:<7}] "
                      f"{row['summary']}")
        return EXIT_OK

    targets = []
    if args.table1:
        from .benchsuite.programs import ENTRIES, SOURCES, is_unsized

        for name in sorted(SOURCES):
            size = None if is_unsized(name) else args.size
            targets.append((name, SOURCES[name], ENTRIES[name], size))
    elif args.file:
        targets.append((args.file, _read(args.file), args.entry, args.size))
    else:
        print("error: give a Tower source file, --table1, or --codes",
              file=sys.stderr)
        return EXIT_USAGE

    reports = []
    try:
        for path, src, entry, size in targets:
            reports.append(
                lint_source(
                    src, entry=entry, size=size,
                    config=_config(args), path=path,
                )
            )
    except AnalysisError as err:
        print(f"internal analysis error: {err}", file=sys.stderr)
        return EXIT_INTERNAL
    except ReproError as err:
        # anything the linter should have turned into a finding but did
        # not is an internal defect, not a lint result
        print(f"internal analysis error: {err}", file=sys.stderr)
        return EXIT_INTERNAL

    if args.json:
        payload = [json.loads(report.render_json()) for report in reports]
        out = payload[0] if len(payload) == 1 else payload
        print(json.dumps(out, indent=1, sort_keys=True))
    else:
        for report in reports:
            print(report.render_human())
    if any(report.errors for report in reports):
        return EXIT_FINDINGS
    return EXIT_OK


def cmd_optimizers(args) -> int:
    source = _read(args.file)
    compiled = compile_source(source, args.entry, args.size, _config(args), args.optimize)
    baseline = compiled.t_complexity()
    print(f"unoptimized T-complexity: {baseline}")
    # one decomposition cache across all baselines: they expand the same
    # compiled circuit, and the Clifford+T expansion dominates their cost
    shared_cache = DecompositionCache()
    for name in pass_names():
        cls = get_pass_class(name)
        if cls.stage != GATES:
            continue
        spec = f"{name}(timeout={args.timeout})" if name == "greedy-search" else name
        pipeline = resolve_pipeline(f"{compiled.pipeline}+{spec}")
        circuit, (record,), _ = PassManager(
            pipeline, decomposition_cache=shared_cache
        ).run_gate_suffix(compiled.circuit, len(pipeline) - 1)
        t_count = circuit.t_count()
        reduction = 100 * (1 - t_count / baseline) if baseline else 0.0
        print(f"  {name:<16} T={t_count:<8} ({reduction:5.1f}% less) "
              f"in {record.seconds:.3f}s   [{cls.models}]")
    return 0


def _parse_depths(spec: str) -> list:
    """Parse ``2..10`` or ``2,3,5`` into a depth list."""
    if ".." in spec:
        lo, hi = spec.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in spec.split(",") if part]


def cmd_bench(args) -> int:
    import json
    import pathlib
    import time

    from .benchsuite import (
        ArtifactCache,
        BenchmarkRunner,
        GRID_SELECTORS,
        ParallelBackend,
        RetryPolicy,
        SerialBackend,
        paper_grid,
    )
    from .benchsuite.runner import default_depths
    from .faults import inject, parse_fault_plan

    config = _config(args)
    selectors = list(args.select or [])
    if args.smoke and "smoke" not in selectors:
        selectors.append("smoke")
    if not selectors:
        selectors = [s for s in GRID_SELECTORS if s != "smoke"]
    depths = _parse_depths(args.depths) if args.depths else default_depths()
    if args.pipeline:
        # custom-pipeline sweeps default to a small depth slice: they
        # exercise the pass manager and the pass-granular cache, not the
        # paper's full grids
        depths = _parse_depths(args.depths) if args.depths else [2, 3]
    tree_depths = (
        _parse_depths(args.tree_depths) if args.tree_depths else list(range(2, 9))
    )
    if not depths or not tree_depths:
        print("error: empty depth range (use e.g. --depths 2..10 or 2,4,6)",
              file=sys.stderr)
        return 2

    if args.benchmarks and not args.pipeline:
        print("error: --benchmarks needs --pipeline: the paper grids "
              "name their own benchmarks", file=sys.stderr)
        return 2
    if args.pipeline:
        from .benchsuite import get_source, measure_tasks

        # validate the spec (pass names and parameters) and the benchmark
        # names before any task runs
        canonical_pipeline(args.pipeline)
        names = args.benchmarks or ["length", "length-simplified"]
        for name in names:
            try:
                get_source(name)
            except (KeyError, ValueError):
                print(f"error: unknown benchmark {name!r}", file=sys.stderr)
                return 2
        grids = [("pipeline", measure_tasks(names, depths, [args.pipeline]))]
    else:
        grids = [
            (selector, paper_grid(selector, depths, tree_depths))
            for selector in selectors
        ]

    cache = ArtifactCache(args.cache_dir) if args.cache_dir else None
    policy = RetryPolicy(
        retries=args.retries,
        task_timeout=args.task_timeout,
        max_failures=args.max_failures,
        seed=args.seed,
    )
    if args.jobs > 1:
        backend = ParallelBackend(jobs=args.jobs, policy=policy)
    else:
        backend = SerialBackend(policy=policy)
    runner = BenchmarkRunner(config, cache=cache, backend=backend)

    plan = None
    if args.inject_faults:
        plan = parse_fault_plan(args.inject_faults, seed=args.seed)
        inject.install(plan)

    out_dir = pathlib.Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    show = sys.stderr.isatty() and not args.quiet

    def progress(done, total, row):
        if show:
            mark = " (cached)" if row.get("cached") else ""
            print(f"\r[{done}/{total}] {row['name']}{mark}".ljust(60),
                  end="", file=sys.stderr, flush=True)

    all_cached = True
    all_warm = True
    total_failed = 0
    mismatched = False
    try:
        for selector, tasks in grids:
            start = time.perf_counter()
            result = runner.run_grid(tasks, progress=progress)
            elapsed = time.perf_counter() - start
            if show:
                print(file=sys.stderr)
            failed = len(result.failed_rows)
            total_failed += failed
            all_cached = all_cached and result.cached_fraction() == 1.0
            all_warm = all_warm and all(
                row.get("cached") or row.get("prefix_cached")
                for row in result.ok()
            )
            artifact = {
                "selector": selector,
                "config": vars(config),
                "depths": depths,
                "tree_depths": tree_depths,
                "jobs": args.jobs,
                "backend": backend.name,
                "package_version": __version__,
                "elapsed_seconds": round(elapsed, 4),
                "cached_fraction": round(result.cached_fraction(), 4),
                "failed": failed,
                "rows": result.rows,
            }
            if plan is not None:
                artifact["fault_plan"] = plan.to_env()
            if args.pipeline:
                artifact["pipeline"] = args.pipeline
                prefix_rows = [
                    row for row in result.rows
                    if row.get("prefix_cached") and not row.get("cached")
                ]
                if prefix_rows:
                    print(
                        f"{len(prefix_rows)}/{len(result)} points resumed from "
                        "a cached pipeline prefix (no recompile)"
                    )
            path = out_dir / f"{selector}.json"
            path.write_text(json.dumps(artifact, indent=1, sort_keys=True) + "\n")
            status = f"{selector}: {len(result)} points in {elapsed:.2f}s " \
                     f"({100 * result.cached_fraction():.0f}% cached)"
            if failed:
                status += f", {failed} FAILED"
            print(f"{status} -> {path}")
            for row in result.failed_rows:
                print(
                    f"  failed: {row['name']}@{row['depth']} "
                    f"[{row['optimization']}] {row['error_kind']} "
                    f"after {row['attempts']} attempt(s): {row['message']}",
                    file=sys.stderr,
                )
            if args.check_against:
                from .benchsuite.parallel import stable_rows

                baseline = json.loads(
                    pathlib.Path(args.check_against).read_text()
                )
                ours = stable_rows(result.ok())
                theirs = stable_rows(
                    [r for r in baseline["rows"] if not r.get("failed")]
                )
                if ours == theirs:
                    print(f"{selector}: rows bit-identical to "
                          f"{args.check_against}")
                else:
                    mismatched = True
                    print(
                        f"error: {selector}: rows differ from "
                        f"{args.check_against} "
                        f"({len(ours)} vs {len(theirs)} stable rows)",
                        file=sys.stderr,
                    )
    finally:
        backend.close()
        if plan is not None:
            inject.uninstall()
    if cache is not None:
        stats = cache.stats()
        line = (
            f"cache {args.cache_dir}: {stats['entries']} entries, "
            f"{stats['hits']} hits / {stats['misses']} misses this run"
        )
        if stats["corrupt"] or stats["io_errors"]:
            line += (
                f", {stats['corrupt']} corrupt (quarantined), "
                f"{stats['io_errors']} I/O errors"
            )
        print(line)
    if mismatched:
        return 1
    if total_failed:
        print(f"error: {total_failed} task(s) exhausted their retries",
              file=sys.stderr)
        return 1
    if args.require_cached and not all_cached:
        print("error: --require-cached set but some points were cold",
              file=sys.stderr)
        return 1
    if args.require_prefix and not all_warm:
        print("error: --require-prefix set but some points neither replayed "
              "nor resumed from a cached pipeline prefix", file=sys.stderr)
        return 1
    return 0


def cmd_cache(args) -> int:
    from .benchsuite import ArtifactCache

    cache = ArtifactCache(args.dir)
    if args.action == "stats":
        usage = cache.usage()
        print(f"{args.dir}: {usage['entries']} entries, {usage['bytes']} bytes")
        if usage["quarantine_entries"]:
            print(
                f"  quarantine: {usage['quarantine_entries']} entries, "
                f"{usage['quarantine_bytes']} bytes"
            )
        return 0
    if args.action == "prune":
        if args.max_bytes is None:
            print("error: prune needs --max-bytes", file=sys.stderr)
            return 2
        report = cache.prune(args.max_bytes)
        print(
            f"{args.dir}: removed {report['removed_entries']} entries "
            f"({report['removed_bytes']} bytes); "
            f"{report['remaining_entries']} entries "
            f"({report['remaining_bytes']} bytes) remain"
        )
        return 0
    removed = cache.clear()
    print(f"{args.dir}: cleared {removed} entries")
    return 0


def cmd_fuzz(args) -> int:
    import time
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from dataclasses import asdict

    from .fuzz import GenConfig, OracleConfig, check_generated, shrink
    from .fuzz.corpus import (
        CorpusCase,
        coverage_guided_run,
        save_case,
        save_seed_manifest,
        uniform_run,
    )
    from .fuzz.generator import (
        generate_workload,
        program_seed,
        render_program,
    )
    from .fuzz.oracles import OracleFailure, oracle_config_for, run_oracles

    gen = GenConfig(
        hadamard_prob=args.hadamard_prob,
        heap_shapes=args.heap_shapes,
    ).scaled(max_depth=args.max_depth)
    base_cfg = OracleConfig(
        check_optimizers=not args.no_optimizers,
        n_inputs=args.inputs,
        verify_passes=args.verify_passes,
    )
    if args.optimizer_t_cap is not None:
        from dataclasses import replace as _replace

        base_cfg = _replace(
            base_cfg,
            optimizer_t_cap=args.optimizer_t_cap or None,
        )
    cfg = oracle_config_for(gen, base_cfg)
    show_now = sys.stderr.isatty() and not args.quiet

    if args.corpus:
        import pathlib

        from .fuzz.corpus import load_corpus, load_seed_manifest, replay_case

        corpus_dir = pathlib.Path(args.corpus)
        if not corpus_dir.is_dir():
            print(f"error: corpus directory {corpus_dir} does not exist",
                  file=sys.stderr)
            return 2
        failed = 0
        total = 0
        manifest = corpus_dir / "seeds.json"
        if manifest.exists():
            for seed, seed_gen in load_seed_manifest(manifest):
                report = check_generated(seed, seed_gen, base_cfg)
                total += 1
                if show_now:
                    mark = "ok" if report.ok else f"FAIL {report.oracle}"
                    print(f"seed {seed}: {mark}", file=sys.stderr)
                if not report.ok:
                    failed += 1
                    print(f"seed {seed}: {report.oracle}\n  {report.message}")
        cases_dir = corpus_dir / "cases"
        if cases_dir.exists():
            for case in load_corpus(cases_dir):
                total += 1
                try:
                    replay_case(case, base_cfg)
                    if show_now:
                        print(f"case {case.name}: ok", file=sys.stderr)
                except OracleFailure as failure:
                    failed += 1
                    print(
                        f"case {case.name}: {failure.oracle}\n"
                        f"  {failure.message}"
                    )
        if total == 0:
            # an empty corpus means the gate checked nothing — that is a
            # harness failure, not a pass
            print(f"error: corpus {corpus_dir} has no seeds.json entries "
                  "and no cases/ reproducers", file=sys.stderr)
            return 2
        checks = " under --verify-passes" if args.verify_passes else ""
        print(
            f"corpus replay{checks}: {total - failed}/{total} entries passed"
        )
        return 1 if failed else 0

    start = time.perf_counter()
    deadline = start + args.time_budget if args.time_budget else None
    reports = []
    checked = 0
    coverage_regressed = False
    show = sys.stderr.isatty() and not args.quiet

    def note(report, total):
        nonlocal checked
        checked += 1
        reports.append(report)
        if show:
            mark = "ok" if report.ok else f"FAIL {report.oracle}"
            print(f"\r[{checked}/{total}] seed {report.seed}: {mark}".ljust(70),
                  end="", file=sys.stderr, flush=True)

    if args.coverage_guided:
        # coverage collection uses a process-global trace hook: serial only
        result = coverage_guided_run(
            args.seed, args.count, gen, cfg,
            progress=lambda done, total, r: note(r, total),
            deadline=deadline,
        )
        reports = result.reports
        if show:
            print(file=sys.stderr)
        print(result.summary())
        if args.coverage_baseline:
            # same realized budget: a deadline may have cut the guided run
            budget = len(reports)
            baseline = uniform_run(args.seed, budget, gen, cfg)
            print(baseline.summary())
            delta = result.branch_coverage() - baseline.branch_coverage()
            print(
                f"coverage-guided vs uniform (same {budget}-program "
                f"budget): {result.branch_coverage()} vs "
                f"{baseline.branch_coverage()} branches ({delta:+d})"
            )
            if delta <= 0:
                # deterministic given (seed, count, knobs): a regression
                # here means the scheduler stopped earning its overhead
                print(
                    "error: coverage-guided scheduling did not beat "
                    "uniform seeding on this budget",
                    file=sys.stderr,
                )
                coverage_regressed = True
        if args.save_frontier:
            path = save_seed_manifest(
                [(entry.seed, entry.gen) for entry in result.frontier],
                args.save_frontier,
                comment=(
                    "Coverage-novel frontier of a coverage-guided fuzz run "
                    f"(base seed {args.seed}, budget {args.count})."
                ),
            )
            print(f"frontier manifest saved to {path}")
    else:
        seeds = [program_seed(args.seed, index) for index in range(args.count)]
        if args.jobs > 1:
            with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                outstanding = {
                    pool.submit(check_generated, seed, gen, cfg) for seed in seeds
                }
                try:
                    while outstanding:
                        finished, outstanding = wait(
                            outstanding, return_when=FIRST_COMPLETED
                        )
                        for future in finished:
                            note(future.result(), len(seeds))
                        if deadline and time.perf_counter() > deadline:
                            for future in outstanding:
                                future.cancel()
                            break
                finally:
                    pool.shutdown(wait=False, cancel_futures=True)
        else:
            for seed in seeds:
                note(check_generated(seed, gen, cfg), len(seeds))
                if deadline and time.perf_counter() > deadline:
                    break
        if show:
            print(file=sys.stderr)

    failures = [r for r in reports if not r.ok]
    elapsed = time.perf_counter() - start
    mode = " coverage-guided," if args.coverage_guided else ""
    print(
        f"fuzz: {len(reports) - len(failures)}/{len(reports)} programs passed "
        f"all oracles in {elapsed:.1f}s "
        f"(base seed {args.seed},{mode} {args.jobs} jobs)"
    )
    skipped = [
        r.stats["optimizers_skipped"]
        for r in reports
        if r.ok and r.stats.get("optimizers_skipped")
    ]
    if skipped:
        print(
            f"optimizer baselines skipped on {len(skipped)} oversized "
            f"programs (Clifford+T T-count > {cfg.optimizer_t_cap}; "
            f"largest {max(skipped)}); all other oracles still ran"
        )
    for report in sorted(failures, key=lambda r: r.seed):
        print(f"\nseed {report.seed}: {report.oracle}\n  {report.message}")
        if report.oracle.startswith("crash[generate]"):
            continue  # no program to shrink or save
        report_gen = report.gen if report.gen is not None else gen
        report_cfg = oracle_config_for(report_gen, cfg)
        workload = generate_workload(report.seed, report_gen, report_cfg.compiler)
        program, shapes = workload.program, workload.shapes
        if args.shrink:

            def signature_of(candidate, _seed=report.seed, _cfg=report_cfg,
                             _shapes=shapes):
                try:
                    run_oracles(
                        candidate, "main", None, _cfg,
                        input_seed=_seed, shapes=_shapes,
                    )
                except OracleFailure as failure:
                    return failure.oracle
                except Exception:
                    return None
                return None

            program, attempts = shrink(program, signature_of)
            print(f"  shrunk after {attempts} oracle evaluations:")
        source = render_program(program)
        print("  " + "\n  ".join(source.rstrip().splitlines()))
        if args.save_failures:
            slug = "".join(
                ch if ch.isalnum() or ch in "-_" else "-" for ch in report.oracle
            ).strip("-")
            case = CorpusCase(
                name=f"seed{report.seed}-{slug}",
                source=source,
                oracle=report.oracle,
                description=report.message or "",
                seed=report.seed,
                input_seed=report.seed,
                compiler=vars(report_cfg.compiler),
                shapes=[asdict(shape) for shape in shapes],
            )
            path = save_case(case, args.save_failures)
            print(f"  reproducer saved to {path}")
    return 1 if failures or coverage_regressed else 0


def cmd_resources(args) -> int:
    source = _read(args.file)
    compiled = compile_source(source, args.entry, args.size, _config(args), args.optimize)
    print(estimate_resources(compiled))
    return 0


def cmd_serve(args) -> int:
    from .benchsuite import RetryPolicy
    from .serve import serve_main

    policy = RetryPolicy(retries=args.retries, task_timeout=args.task_timeout)
    return serve_main(
        config=_config(args),
        cache_dir=args.cache_dir,
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        policy=policy,
        cache_max_bytes=args.cache_max_bytes,
    )


def cmd_loadgen(args) -> int:
    import json

    from .serve import run_loadgen

    depths = _parse_depths(args.depths) if args.depths else [1, 2]
    if not depths:
        print("error: empty depth range (use e.g. 1..2 or 1,2)",
              file=sys.stderr)
        return 2
    report = run_loadgen(
        args.host,
        args.port,
        config=_config(args),
        depths=depths,
        fuzz_count=args.fuzz_count,
        clients=args.clients,
        duplicates=args.duplicates,
        seed=args.seed,
        hit_rate_floor=args.hit_rate_floor,
        check_serial=args.check_serial,
    )
    print(json.dumps(report, indent=2, sort_keys=True, default=str))
    if not report["ok"]:
        for problem in report["problems"]:
            print(f"loadgen violation: {problem}", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Tower/Spire quantum compiler (PLDI 2024 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile to an MCX circuit")
    _add_common(p_compile)
    p_compile.add_argument("--verify-passes", action="store_true",
                           help="check declared pass invariants between "
                                "passes (re-typecheck after IR rewrites, "
                                "T-count monotonicity after gate passes)")
    p_compile.add_argument("--show-passes", action="store_true",
                           help="print the per-pass timing breakdown")
    p_compile.add_argument("--emit", help="write the circuit in .qc format")
    p_compile.set_defaults(func=cmd_compile)

    p_passes = sub.add_parser(
        "passes", help="list registered pipeline passes and presets"
    )
    p_passes.add_argument("--list", action="store_true", default=True,
                          help="list passes (the default and only action)")
    p_passes.set_defaults(func=cmd_passes)

    p_analyze = sub.add_parser("analyze", help="cost model only (no circuit)")
    _add_common(p_analyze)
    p_analyze.add_argument("--symbolic", action="store_true",
                           help="fit closed-form T/MCX bounds in the depth "
                                "bound d (with per-function recurrences) "
                                "instead of evaluating one size")
    p_analyze.add_argument("--json", action="store_true",
                           help="with --symbolic: machine-readable output")
    p_analyze.set_defaults(func=cmd_analyze)

    p_lint = sub.add_parser(
        "lint", help="static analysis findings (stable RPA codes)"
    )
    p_lint.add_argument("file", nargs="?", default=None,
                        help="Tower source file")
    p_lint.add_argument("--table1", action="store_true",
                        help="lint every Table 1 benchmark instead of a file")
    p_lint.add_argument("--entry", default=None,
                        help="entry function (default: main, else the first "
                             "function defined)")
    p_lint.add_argument("--size", type=int, default=None,
                        help="recursion bound for the lowered-entry checks "
                             "(default: 3 for sized entries)")
    p_lint.add_argument("--json", action="store_true",
                        help="machine-readable report (stable key order)")
    p_lint.add_argument("--codes", action="store_true",
                        help="print the diagnostic-code catalog and exit")
    p_lint.add_argument("--word-width", type=int, default=4)
    p_lint.add_argument("--addr-width", type=int, default=4)
    p_lint.add_argument("--heap-cells", type=int, default=8)
    p_lint.set_defaults(func=cmd_lint)

    p_opt = sub.add_parser("optimizers", help="compare circuit optimizers")
    _add_common(p_opt)
    p_opt.add_argument("--timeout", type=float, default=2.0)
    p_opt.set_defaults(func=cmd_optimizers)

    p_res = sub.add_parser("resources", help="T-count/T-depth/qubit report")
    _add_common(p_res)
    p_res.set_defaults(func=cmd_resources)

    p_bench = sub.add_parser(
        "bench", help="reproduce the paper's evaluation grids (cached, parallel)"
    )
    from .benchsuite import GRID_SELECTORS

    p_bench.add_argument(
        "--select", nargs="+", metavar="GRID", choices=GRID_SELECTORS,
        help="grids to run: " + " ".join(GRID_SELECTORS)
             + " (default: every table/figure grid)")
    p_bench.add_argument("--smoke", action="store_true",
                         help="run the minutes-scale CI smoke grid")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="worker processes for the grid fan-out "
                              "(default 1: the sweep runs serially)")
    p_bench.add_argument("--cache-dir", default=None,
                         help="artifact cache directory: stores every row, "
                              "and the circuits a later pipeline can resume "
                              "from (compile prefixes and intermediate gate-"
                              "pass outputs); an interrupted sweep resumes "
                              "when run again on the same directory")
    p_bench.add_argument("--out", default="bench_artifacts",
                         help="directory for the per-grid JSON artifacts")
    p_bench.add_argument("--depths", default=None,
                         help="depth range, e.g. 2..10 or 2,4,6 (default: 2..10)")
    p_bench.add_argument("--tree-depths", default=None,
                         help="depth range for the tree benchmarks (default: 2..8)")
    p_bench.add_argument("--pipeline", default=None, metavar="SPEC",
                         help="sweep a custom pass pipeline instead of a "
                              "paper grid (e.g. 'spire+peephole' or "
                              "'flatten,narrow,alloc,lower,zx-like'); "
                              "writes pipeline.json")
    p_bench.add_argument("--benchmarks", nargs="+", metavar="NAME",
                         default=None,
                         help="benchmarks for --pipeline sweeps "
                              "(default: length length-simplified)")
    p_bench.add_argument("--retries", type=int, default=2,
                         help="retry budget per task; a task that still "
                              "fails becomes a structured failure row "
                              "(default: 2)")
    p_bench.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-task wall-clock timeout; a late task's "
                              "worker is restarted and the task retried")
    p_bench.add_argument("--max-failures", type=int, default=None, metavar="N",
                         help="abort the sweep once more than N tasks have "
                              "exhausted their retries (default: never)")
    p_bench.add_argument("--inject-faults", default=None, metavar="SPEC",
                         help="deterministic chaos: comma-separated "
                              "kind:site[:p=F][:a=N] fault specs, e.g. "
                              "'crash:worker.execute:p=0.3,"
                              "corrupt:cache.store_point:p=0.2'")
    p_bench.add_argument("--seed", type=int, default=0,
                         help="seed of the fault plan and backoff jitter")
    p_bench.add_argument("--check-against", default=None, metavar="PATH",
                         help="compare this sweep's rows against a previous "
                              "bench artifact (timing/cache fields ignored); "
                              "non-zero exit on any difference")
    p_bench.add_argument("--require-cached", action="store_true",
                         help="fail unless every point replays from the cache")
    p_bench.add_argument("--require-prefix", action="store_true",
                         help="fail unless every point replays from the "
                              "cache or resumes from a cached pipeline "
                              "prefix (no cold compiles)")
    p_bench.add_argument("--quiet", action="store_true",
                         help="suppress per-point progress output")
    p_bench.add_argument("--word-width", type=int, default=3)
    p_bench.add_argument("--addr-width", type=int, default=3)
    p_bench.add_argument("--heap-cells", type=int, default=6)
    p_bench.set_defaults(func=cmd_bench)

    p_cache = sub.add_parser(
        "cache", help="inspect, size-bound, or clear an artifact cache"
    )
    p_cache.add_argument("action", choices=["stats", "prune", "clear"],
                         help="stats: entry/byte usage incl. quarantine; "
                              "prune: evict oldest entries down to "
                              "--max-bytes; clear: remove everything")
    p_cache.add_argument("dir", help="artifact cache directory")
    p_cache.add_argument("--max-bytes", type=int, default=None,
                         help="size bound for prune (bytes)")
    p_cache.set_defaults(func=cmd_cache)

    p_fuzz = sub.add_parser(
        "fuzz",
        help="differential fuzzing: generated programs through every oracle",
    )
    p_fuzz.add_argument("--seed", type=int, default=0,
                        help="base seed of the deterministic program sequence")
    p_fuzz.add_argument("--count", type=int, default=100,
                        help="number of programs to generate and check")
    p_fuzz.add_argument("--max-depth", type=int, default=None,
                        help="statement-nesting depth knob of the generator")
    p_fuzz.add_argument("--hadamard-prob", type=float, default=0.0,
                        help="probability of H(x) statements; programs in "
                             "superposition are checked by the amplitude "
                             "oracles (default 0.0)")
    p_fuzz.add_argument("--heap-shapes", action="store_true",
                        help="build well-formed lists/trees in the initial "
                             "heap and generate recursive traversals over "
                             "them")
    p_fuzz.add_argument("--coverage-guided", action="store_true",
                        help="schedule seeds by branch coverage over "
                             "repro.ir/compiler/circopt (serial; mutates "
                             "generator knobs from a coverage-novel frontier)")
    p_fuzz.add_argument("--coverage-baseline", action="store_true",
                        help="with --coverage-guided: also run the uniform "
                             "baseline on the same budget and log the "
                             "coverage comparison")
    p_fuzz.add_argument("--save-frontier", metavar="PATH", default=None,
                        help="with --coverage-guided: write the frontier as "
                             "a seeds.json-style manifest")
    p_fuzz.add_argument("--jobs", type=int, default=1,
                        help="worker processes (programs are independent; "
                             "ignored by --coverage-guided runs)")
    p_fuzz.add_argument("--inputs", type=int, default=3,
                        help="basis inputs simulated per program")
    p_fuzz.add_argument("--shrink", action="store_true", default=True,
                        help="minimize failing programs (default)")
    p_fuzz.add_argument("--no-shrink", dest="shrink", action="store_false",
                        help="report failures unshrunk")
    p_fuzz.add_argument("--no-optimizers", action="store_true",
                        help="skip the circuit-optimizer oracles (faster)")
    p_fuzz.add_argument("--verify-passes", action="store_true",
                        help="run the pass manager's between-pass invariant "
                             "checks on every compile")
    p_fuzz.add_argument("--corpus", metavar="DIR", default=None,
                        help="replay a corpus directory (seeds.json manifest "
                             "+ cases/) instead of generating new programs")
    p_fuzz.add_argument("--optimizer-t-cap", type=int, default=None,
                        metavar="T",
                        help="skip the optimizer baselines on programs whose "
                             "Clifford+T expansion exceeds T T-gates "
                             "(deterministic; skips are reported in the "
                             "summary; 0 = uncapped; default 150000)")
    p_fuzz.add_argument("--time-budget", type=float, default=None,
                        help="stop checking new programs after this many seconds")
    p_fuzz.add_argument("--save-failures", metavar="DIR", default=None,
                        help="write shrunk reproducers as corpus cases "
                             "(e.g. tests/corpus/cases)")
    p_fuzz.add_argument("--quiet", action="store_true",
                        help="suppress per-program progress output")
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_serve = sub.add_parser(
        "serve",
        help="compilation-as-a-service: a long-running HTTP/JSON server "
             "over the shared artifact cache",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=8351,
                         help="TCP port (0 picks a free one; default 8351)")
    p_serve.add_argument("--jobs", type=int, default=1,
                         help="worker processes (default 1: requests run "
                              "on one thread of the server process); a "
                              "request runs in the worker that owns its "
                              "program, depth and compile prefix")
    p_serve.add_argument("--cache-dir", default=None,
                         help="shared artifact cache directory (enables warm "
                              "replays, across restarts too)")
    p_serve.add_argument("--cache-max-bytes", type=int, default=None,
                         help="prune the cache to this size (LRU), at "
                              "most once a second while requests complete")
    p_serve.add_argument("--retries", type=int, default=2,
                         help="retry budget per task (default: 2)")
    p_serve.add_argument("--task-timeout", type=float, default=None,
                         metavar="SECONDS",
                         help="per-task wall-clock timeout")
    p_serve.add_argument("--word-width", type=int, default=3)
    p_serve.add_argument("--addr-width", type=int, default=3)
    p_serve.add_argument("--heap-cells", type=int, default=6)
    p_serve.set_defaults(func=cmd_serve)

    p_load = sub.add_parser(
        "loadgen",
        help="replay mixed benchmark/fuzz traffic against a running "
             "`repro serve` and verify the service contract",
    )
    p_load.add_argument("--host", default="127.0.0.1")
    p_load.add_argument("--port", type=int, required=True,
                        help="port of the running server")
    p_load.add_argument("--clients", type=int, default=8,
                        help="concurrent persistent connections (default: 8)")
    p_load.add_argument("--duplicates", type=int, default=2,
                        help="copies of each distinct request in the cold "
                             "phase (the single-flight race; default: 2)")
    p_load.add_argument("--fuzz-count", type=int, default=25,
                        help="generated fuzz programs in the mix "
                             "(default: 25)")
    p_load.add_argument("--depths", default=None,
                        help="smoke-grid depth range, e.g. 1..2 or 1,2 "
                             "(default: 1..2)")
    p_load.add_argument("--seed", type=int, default=0,
                        help="seed of the deterministic request shuffle")
    p_load.add_argument("--hit-rate-floor", type=float, default=0.9,
                        help="minimum warm-phase hit rate (default: 0.9)")
    p_load.add_argument("--no-check-serial", dest="check_serial",
                        action="store_false",
                        help="skip the serial no-server bit-identity "
                             "baseline (faster)")
    p_load.add_argument("--word-width", type=int, default=3)
    p_load.add_argument("--addr-width", type=int, default=3)
    p_load.add_argument("--heap-cells", type=int, default=6)
    p_load.set_defaults(func=cmd_loadgen)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
