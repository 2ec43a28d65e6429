"""Worker process of the in-process workloads (``cold``, ``prefix``, ``warm``).

Started by ``run.py``, with ``src`` and this directory on ``PYTHONPATH``::

    python3 perfbench/inproc.py --workload cold --seed 1 --seconds 10 \\
        --trace 0 --work DIR

It sets the workload up (imports, cache priming, one warm-up round),
prints ``ready``, and reads one line from standard input: ``go`` runs
the timed rounds and prints one JSON line of raw results; anything else
exits.  Each request is one ``BenchmarkRunner.measure`` call; preparing
its cache directory happens outside the timed region.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import shutil
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

import calibrate
import spans
import workloads
from repro.benchsuite.cache import ArtifactCache
from repro.benchsuite.runner import BenchmarkRunner
from repro.config import CompilerConfig

CONFIG = CompilerConfig(**workloads.CONFIG)

#: seconds between calibration samples; a request is scaled by the
#: samples up to this long before its start or after its end
CALIBRATE_EVERY_S = 0.05

#: per request: a runner and the cache directory to delete afterwards
Prepare = Callable[[workloads.Point], Tuple[BenchmarkRunner, Optional[Path]]]


def set_up(workload: str, work: Path) -> Prepare:
    """Prime the caches of ``workload``; returns its per-request preparation."""
    numbers = itertools.count()
    if workload == "cold":
        def prepare(point):
            root = work / f"request{next(numbers)}"
            return BenchmarkRunner(CONFIG, cache=ArtifactCache(root)), root
        return prepare

    if workload == "prefix":
        # one template cache per program, holding only the lowered circuit
        templates: Dict[Tuple[str, Optional[int]], Path] = {}
        for name, depth, pipeline in workloads.PREFIX:
            if (name, depth) not in templates:
                root = work / f"template-{name}-{depth}"
                BenchmarkRunner(CONFIG, cache=ArtifactCache(root)).measure(
                    name, depth, pipeline.partition("+")[0]
                )
                templates[(name, depth)] = root

        def prepare(point):
            root = work / f"request{next(numbers)}"
            shutil.copytree(templates[point[:2]], root)
            return BenchmarkRunner(CONFIG, cache=ArtifactCache(root)), root
        return prepare

    if workload == "warm":
        cache = ArtifactCache(work / "warm")
        for point in workloads.WARM:
            BenchmarkRunner(CONFIG, cache=cache).measure(*point)
        runner = BenchmarkRunner(CONFIG, cache=cache)  # one long-lived process
        return lambda point: (runner, None)

    raise ValueError(f"not an in-process workload: {workload}")


def run_rounds(
    points: List[workloads.Point],
    prepare: Prepare,
    expected: Dict[str, Any],
    seed: str,
    deadline: Optional[float],
) -> Dict[str, Any]:
    """Time every request of whole shuffled rounds until ``deadline``.

    Latencies, of answered requests only, are scaled to the reference
    host speed by calibration samples taken between requests
    (``calibrate.py``).
    """
    calibration = calibrate.Calibration()
    calibration.add(calibrate.sample())
    timed: List[Tuple[str, float, float]] = []
    failed = wrong = 0
    for point in workloads.schedule(points, seed, deadline):
        if time.perf_counter() - calibration.times[-1] >= CALIBRATE_EVERY_S:
            calibration.add(calibrate.sample())
        runner, root = prepare(point)
        start = time.perf_counter()
        try:
            row = runner.measure(*point).row()
        except Exception as exc:  # a failed request is counted, not fatal
            row = None
            print(f"perfbench: {workloads.key(point)} failed: {exc!r}", file=sys.stderr)
        seconds = time.perf_counter() - start
        if row is None:
            failed += 1
        else:
            timed.append((workloads.key(point), start, seconds))
            wrong += not workloads.matches(row, expected[workloads.key(point)])
        if root is not None:
            shutil.rmtree(root, ignore_errors=True)
    calibration.add(calibrate.sample())
    latencies = [
        (key, seconds * calibration.scale(start, start + seconds, CALIBRATE_EVERY_S))
        for key, start, seconds in timed
    ]
    return {
        "latencies": latencies,
        "elapsed": sum(seconds for _, seconds in latencies),
        "failed": failed,
        "wrong": wrong,
        "scale": calibration.overall(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args()

    if args.trace:
        spans.install()
    expected = workloads.load_expected()["rows"]
    points = workloads.POINTS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    prepare = set_up(args.workload, args.work)
    run_rounds(points, prepare, expected, f"warm-up {args.seed}", None)
    print("ready", flush=True)

    if sys.stdin.readline().strip() != "go":
        return 0
    calibrate.pin_to_one_cpu()
    spans.RECORDER.reset()
    result = run_rounds(
        points, prepare, expected, args.seed, time.perf_counter() + args.seconds
    )
    result["batches"] = 0  # requests run one at a time, never batched
    if args.trace:
        spans.RECORDER.add("peak_rss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        result["spans"] = spans.RECORDER.totals()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
