"""End-to-end and per-layer benchmark of the compiler and ``repro serve``.

Run from the repository root::

    python3 perfbench/run.py --workload cold --seed 1 --seconds 10 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  Every answered row is checked against ``expected.json``.

Workloads (``workloads.py`` lists each one's requests):

``cold``
    In process: Tower source to a stored row through an empty artifact
    cache -- parse, lowering, passes, cost model, snapshot and cache writes.
``prefix``
    In process: the cache holds the lowered circuit, so a request loads
    that snapshot and runs only its gate pass.
``warm``
    In process: the cache holds every row; no compiler layer runs.
``serve-cold``
    ``repro serve`` at its default ``--jobs 1`` under 8 closed-loop
    clients, each request a program the server has never seen: admission
    lint, batching and the compiler, in the server's executor thread.
``serve-pool``
    The same traffic to ``repro serve --jobs 2``: each batch goes to a
    process pool forked for it.
``serve-warm``
    ``repro serve`` at its default, the same clients, each request one it
    has answered before, so only the event loop works; it and the clients
    share one CPU.

A run sets the workload up three times, each time in a fresh process
(interpreter start, imports, cache priming, one warm-up round), and
``setup_s`` is their median.  The third set-up is then measured: whole
rounds of the workload's requests, in orders drawn from ``--seed``,
until ``--seconds`` have passed.  The in-process workloads time each
``BenchmarkRunner.measure`` call on one pinned CPU; the serve workloads
time each HTTP round trip.  Every time is scaled to a reference host
speed by calibration samples taken beside it (``calibrate.py``).
``latency_ms`` is the geometric mean over the workload's request kinds
of each kind's median; ``throughput_rps`` counts answered requests per
second of measured time.  Both leave failed requests out, and a run
with any failed or wrong request is not ``correct``.  Traced runs
(``--trace 1``) wrap each layer's entry point (``spans.py``) and report
self time per request by layer.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

import calibrate
import serveload
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
SETUPS = 3


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(HERE)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def build_kernels(env: Dict[str, str]) -> None:
    """Compile the optional C kernels when missing or older than a source."""
    kernels = ROOT / "src" / "repro" / "_kernels"
    if not (kernels / "build.py").is_file():
        return
    built = [lib.stat().st_mtime for lib in kernels.glob("*.so")]
    newest_source = max((src.stat().st_mtime for src in kernels.glob("*.c")), default=0.0)
    if built and min(built) >= newest_source:
        return
    subprocess.run(
        [sys.executable, "-m", "repro._kernels.build"],
        cwd=ROOT, env=env, stdout=sys.stderr, check=False, timeout=600,
    )


def run_inproc(args: argparse.Namespace, env: Dict[str, str], work: Path) -> Dict[str, Any]:
    """Set up ``SETUPS`` worker processes in turn, timing each; measure the last."""
    setups = calibrate.SetupTimer()
    for index in range(SETUPS):
        command = [
            sys.executable, str(HERE / "inproc.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--work", str(work / f"setup{index}"),
        ]
        measure = index == SETUPS - 1
        setups.start()
        with subprocess.Popen(
            command, cwd=ROOT, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        ) as proc:
            try:
                ready = proc.stdout.readline().strip()
                setups.stop()
                out, _ = proc.communicate(
                    "go\n" if measure and ready == "ready" else "exit\n",
                    timeout=args.seconds + 120,
                )
            except BaseException:
                proc.kill()
                raise
        if ready != "ready" or proc.returncode != 0:
            raise RuntimeError(f"{args.workload} worker failed (exit {proc.returncode})")
    result = json.loads(out.strip().splitlines()[-1])
    result["setups"] = setups.durations
    return result


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def typical_and_p90(latencies: List[List[Any]]) -> Tuple[float, float]:
    """Typical latency and its 90th percentile, over requests that differ in cost.

    A workload's requests differ in cost up to 25x, so a quantile of all
    latencies pooled jumps between request kinds from run to run.  The
    typical latency is the geometric mean over kinds of each kind's
    median; the 90th percentile scales it by the 90th percentile of every
    latency divided by its kind's median.
    """
    groups: Dict[str, List[float]] = defaultdict(list)
    for key, seconds in latencies:
        groups[key].append(seconds)
    medians = {key: statistics.median(values) for key, values in groups.items()}
    typical = math.exp(statistics.fmean(math.log(m) for m in medians.values()))
    ratios = [seconds / medians[key] for key, seconds in latencies]
    return typical, typical * statistics.quantiles(ratios, n=10)[-1]


def end_to_end(result: Dict[str, Any]) -> Dict[str, Any]:
    latencies = result["latencies"]
    return {
        "latency_ms": metric(typical_and_p90(latencies)[0] * 1e3, "ms"),
        "throughput_rps": metric(len(latencies) / result["elapsed"], "1/s"),
        "setup_s": metric(statistics.median(result["setups"]), "s"),
    }


def per_layer(result: Dict[str, Any]) -> Dict[str, Any]:
    """Self time per request by layer, the untraced rest, and layer counts."""
    latencies = result["latencies"]
    n = len(latencies)
    scale = result["scale"]
    busy = result["spans"]["seconds"]
    counts = result["spans"]["counts"]
    metrics = {
        f"{layer}_ms": metric(busy.get(layer, 0.0) * scale * 1e3 / n, "ms")
        for layer in spans.LAYER_NAMES
    }
    attributed = sum(m["value"] for m in metrics.values())
    mean_ms = statistics.fmean(seconds for _, seconds in latencies) * 1e3
    metrics["unattributed_ms"] = metric(mean_ms - attributed, "ms")
    # the tail is reported here, not end to end: even after calibration
    # its run-to-run spread reaches 22% for sub-millisecond requests
    typical, tail = typical_and_p90(latencies)
    metrics["traced_latency_ms"] = metric(typical * 1e3, "ms")
    metrics["traced_p90_ms"] = metric(tail * 1e3, "ms")
    metrics["compiles_per_request"] = metric(counts.get("lower_calls", 0) / n, "count")
    metrics["gate_passes_per_request"] = metric(counts.get("gate_passes_calls", 0) / n, "count")
    lookups = counts.get("point_lookups", 0)
    metrics["point_hit_ratio"] = metric(
        counts.get("point_hits", 0) / lookups if lookups else 0.0, "ratio"
    )
    metrics["snapshot_kb_written"] = metric(counts.get("snapshot_bytes", 0) / 1024 / n, "KB")
    metrics["batches_per_request"] = metric(result["batches"] / n, "count")
    metrics["peak_rss_mb"] = metric(counts.get("peak_rss_kb", 0) / 1024, "MB")
    metrics["host_speed"] = metric(scale, "ratio")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.POINTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("perfbench: no src/repro package next to perfbench/", file=sys.stderr)
        return 2

    env = child_env()
    build_kernels(env)
    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.workload.startswith("serve"):
            result = asyncio.run(serveload.run(args, ROOT, env, work, SETUPS))
        else:
            result = run_inproc(args, env, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not result["latencies"]:
        print(f"perfbench: all {result['failed']} requests failed", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": result["wrong"] == 0 and result["failed"] == 0,
        "attempted": len(result["latencies"]) + result["failed"],
        "failed": result["failed"],
        "metrics": per_layer(result) if args.trace else end_to_end(result),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
