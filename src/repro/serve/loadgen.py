"""``repro loadgen``: replay mixed traffic against a running server.

The generator builds a deterministic request mix — the paper's smoke
grid (Table 1 benchmarks at small depths, presets and their optimizer
baselines), a stream of generated fuzz workloads, a few inline-source
compiles, and some deliberately broken programs the admission lint must
bounce — and replays it from ``clients`` concurrent persistent
connections in two phases:

* **cold** — every distinct request, each sent ``duplicates`` times in
  a shuffled order, so concurrent identical requests race and the
  single-flight layer must collapse them;
* **warm** — every distinct request once more; by now everything is
  cached, so the server must answer without recompiling.

Afterwards the generator checks the service's contract end to end:

* zero failed rows (and every expected-reject bounced with 422);
* at most one compile execution per distinct key (the dedupe proof,
  read from the server's own ``/metrics`` gauges);
* warm-phase hit rate above ``hit_rate_floor``;
* ``/metrics`` reports latency quantiles (p50/p99) per endpoint;
* measurement rows bit-identical (modulo volatile keys) to a clean
  serial no-server run of the same grid points.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Dict, List, Optional, Tuple

from ..benchsuite.parallel import (
    GridTask,
    SerialBackend,
    paper_grid,
    stable_rows,
)
from ..benchsuite.programs import is_unsized, register_source
from ..benchsuite.runner import BenchmarkRunner
from ..config import CompilerConfig
from ..fuzz.generator import fuzz_name
from .http import Client
from .service import inline_name

#: a tiny well-formed inline program (lints clean, compiles fast)
INLINE_OK = """\
fun main(x: uint) -> uint {
  let y <- x + 1;
  return y;
}
"""

#: rejected at admission: `do stuff` is not Tower syntax, the parse fails
INLINE_PARSE_ERROR = "fun main() { do stuff }\n"

#: parses, but the body does not typecheck (uint + bool)
INLINE_TYPE_ERROR = """\
fun main(x: uint) -> uint {
  let b <- x == x;
  let y <- x + b;
  return y;
}
"""


def build_traffic(
    depths: List[int],
    fuzz_count: int = 25,
    fuzz_seed: int = 0,
) -> List[Dict[str, Any]]:
    """The distinct requests of one replay (before duplication).

    Each entry: ``{path, payload, expect}`` with ``expect`` one of
    ``ok`` (a 200 with a measurement row) or ``reject`` (a 422 from
    admission).  ``ok`` entries also carry the grid-task fields the
    serial baseline re-derives.
    """
    requests: List[Dict[str, Any]] = []
    for task in paper_grid("smoke", depths):
        payload = {
            "name": task.name,
            "depth": task.depth,
            "optimization": task.optimization,
        }
        requests.append(
            {"path": "/measure", "payload": payload, "expect": "ok"}
        )
    for index in range(fuzz_count):
        name = fuzz_name(fuzz_seed, index)
        requests.append(
            {
                "path": "/measure",
                "payload": {"name": name, "optimization": "none"},
                "expect": "ok",
            }
        )
    requests.append(
        {
            "path": "/compile",
            "payload": {"source": INLINE_OK, "depth": None},
            "expect": "ok",
        }
    )
    for bad in (INLINE_PARSE_ERROR, INLINE_TYPE_ERROR):
        requests.append(
            {
                "path": "/compile",
                "payload": {"source": bad},
                "expect": "reject",
            }
        )
    requests.append(
        {
            "path": "/lint",
            "payload": {"source": INLINE_OK},
            "expect": "ok",
        }
    )
    return requests


def _baseline_task(request: Dict[str, Any]) -> Optional[GridTask]:
    """The grid task a successful request measures (None: not a measure)."""
    payload = request["payload"]
    if request["path"] == "/measure":
        name = payload["name"]
        depth = None if is_unsized(name) else payload.get("depth")
        return GridTask(name, depth, payload.get("optimization", "none"))
    if request["path"] == "/compile" and request["expect"] == "ok":
        source = payload["source"]
        entry = payload.get("entry") or "main"
        name = inline_name(source, entry)
        register_source(name, source, entry)
        return GridTask(
            name,
            payload.get("depth"),
            payload.get("optimization", "none"),
        )
    return None


async def _drive(
    host: str,
    port: int,
    work: List[Tuple[int, Dict[str, Any]]],
    clients: int,
) -> List[Tuple[int, int, Any]]:
    """Replay (request-index, request) pairs from N concurrent clients."""
    queue: asyncio.Queue = asyncio.Queue()
    for item in work:
        queue.put_nowait(item)
    results: List[Tuple[int, int, Any]] = []

    async def worker() -> None:
        async with Client(host, port) as client:
            while True:
                try:
                    index, request = queue.get_nowait()
                except asyncio.QueueEmpty:
                    return
                status, payload = await client.post(
                    request["path"], request["payload"]
                )
                results.append((index, status, payload))

    await asyncio.gather(*[worker() for _ in range(clients)])
    return results


def _check_results(
    requests: List[Dict[str, Any]],
    results: List[Tuple[int, int, Any]],
    phase: str,
    problems: List[str],
) -> None:
    for index, status, payload in results:
        request = requests[index]
        expect = request["expect"]
        if expect == "reject":
            if status != 422:
                problems.append(
                    f"{phase}: expected 422 for {request['path']} "
                    f"(bad program), got {status}: {payload}"
                )
        elif status != 200:
            problems.append(
                f"{phase}: expected 200 for {request['path']} "
                f"{request['payload']}, got {status}: {payload}"
            )
        elif isinstance(payload, dict) and payload.get("row", {}).get(
            "failed"
        ):
            problems.append(
                f"{phase}: failed row for {request['payload']}: "
                f"{payload['row']}"
            )


async def _replay(
    host: str,
    port: int,
    requests: List[Dict[str, Any]],
    clients: int,
    duplicates: int,
    seed: int,
    hit_rate_floor: float,
) -> Dict[str, Any]:
    problems: List[str] = []
    rng = random.Random(seed)

    cold_work = [
        (index, request)
        for index, request in enumerate(requests)
        for _ in range(duplicates)
    ]
    rng.shuffle(cold_work)
    started = time.perf_counter()
    cold = await _drive(host, port, cold_work, clients)
    cold_seconds = time.perf_counter() - started
    _check_results(requests, cold, "cold", problems)

    warm_work = list(enumerate(requests))
    rng.shuffle(warm_work)
    started = time.perf_counter()
    warm = await _drive(host, port, warm_work, clients)
    warm_seconds = time.perf_counter() - started
    _check_results(requests, warm, "warm", problems)

    # warm-phase hit rate: a "hit" is a row served without recompiling
    warm_rows = [
        payload["row"]
        for index, status, payload in warm
        if status == 200
        and isinstance(payload, dict)
        and isinstance(payload.get("row"), dict)
    ]
    warm_hits = sum(
        bool(row.get("cached") or row.get("prefix_cached"))
        for row in warm_rows
    )
    hit_rate = warm_hits / len(warm_rows) if warm_rows else None
    if warm_rows and hit_rate < hit_rate_floor:
        problems.append(
            f"warm hit rate {hit_rate:.3f} below floor {hit_rate_floor}"
        )

    async with Client(host, port) as client:
        status, metrics = await client.get("/metrics")
        if status != 200:
            problems.append(f"/metrics returned {status}")
            metrics = {}
        status, cache_stats = await client.get("/cache/stats")
        if status != 200:
            problems.append(f"/cache/stats returned {status}")
            cache_stats = {}

    gauges = (metrics or {}).get("gauges", {})
    max_per_key = gauges.get("max_compiles_per_key")
    if max_per_key is None or max_per_key > 1:
        problems.append(
            f"single-flight violated: max_compiles_per_key={max_per_key}"
        )
    endpoints = (metrics or {}).get("endpoints", {})
    for label in ("measure",):
        stats = endpoints.get(label)
        if not stats or stats.get("p99_seconds") is None:
            problems.append(f"/metrics has no p99 for endpoint {label!r}")

    # the server's own view of each request, for the serial baseline
    latest: Dict[int, Any] = {}
    for index, status, payload in cold + warm:
        if status == 200 and isinstance(payload, dict) and "row" in payload:
            latest[index] = payload["row"]

    return {
        "problems": problems,
        "metrics": metrics,
        "cache_stats": cache_stats,
        "rows_by_request": latest,
        "cold": {"requests": len(cold_work), "seconds": cold_seconds},
        "warm": {
            "requests": len(warm_work),
            "seconds": warm_seconds,
            "hit_rate": hit_rate,
        },
    }


def _serial_baseline(
    requests: List[Dict[str, Any]],
    rows_by_request: Dict[int, Any],
    config: CompilerConfig,
    problems: List[str],
) -> int:
    """Recompute every measured point serially and demand bit-identity."""
    pairs: List[Tuple[GridTask, Dict[str, Any]]] = []
    for index, request in enumerate(requests):
        task = _baseline_task(request)
        if task is None:
            continue
        row = rows_by_request.get(index)
        if row is None:
            continue  # already reported as a problem upstream
        pairs.append((task, row))
    runner = BenchmarkRunner(config)
    baseline = SerialBackend().run(runner, [task for task, _ in pairs])
    for (task, served), computed in zip(pairs, baseline):
        want = stable_rows([computed])[0]
        got = stable_rows([served])[0]
        if want != got:
            diff = {
                key: (want.get(key), got.get(key))
                for key in sorted(set(want) | set(got))
                if want.get(key) != got.get(key)
            }
            problems.append(
                f"row mismatch vs serial baseline for {task.label()}: {diff}"
            )
    return len(pairs)


def run_loadgen(
    host: str,
    port: int,
    config: Optional[CompilerConfig] = None,
    depths: Optional[List[int]] = None,
    fuzz_count: int = 25,
    clients: int = 8,
    duplicates: int = 2,
    seed: int = 0,
    hit_rate_floor: float = 0.9,
    check_serial: bool = True,
) -> Dict[str, Any]:
    """Replay the mix and verify the contract; ``report["ok"]`` is the verdict."""
    if clients < 2:
        raise ValueError("loadgen needs at least 2 concurrent clients")
    config = config or CompilerConfig()
    requests = build_traffic(depths or [1, 2], fuzz_count=fuzz_count)
    report = asyncio.run(
        _replay(
            host,
            port,
            requests,
            clients=clients,
            duplicates=duplicates,
            seed=seed,
            hit_rate_floor=hit_rate_floor,
        )
    )
    problems: List[str] = report["problems"]
    rows_by_request = report.pop("rows_by_request")
    if check_serial and not problems:
        report["baseline_points"] = _serial_baseline(
            requests, rows_by_request, config, problems
        )
    report["distinct_requests"] = len(requests)
    report["clients"] = clients
    report["duplicates"] = duplicates
    report["ok"] = not problems
    return report
