"""Contract tests for ``repro serve`` (the compilation service).

The server runs in-process (port 0, loopback) and is driven through the
real HTTP framing with the package's own :class:`~repro.serve.http.Client`
— the same stack ``repro loadgen`` uses.  The suite pins:

* the status contract: 200 clean / 422 program at fault / 400 request at
  fault / 404 / 405 / protocol-level 400;
* single-flight dedupe: N concurrent identical requests compile exactly
  once (monkeypatch-counted at ``compile_checked``, and cross-checked
  against the server's own ``max_compiles_per_key`` gauge);
* bit-identical rows versus a clean serial no-server run;
* journal durability: a restarted server answers repeats from the
  journal without recompiling;
* the ``/metrics`` and ``/cache/stats`` payload shapes.
"""

from __future__ import annotations

import asyncio
import sys
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import pytest

from repro.benchsuite import ArtifactCache
from repro.benchsuite.parallel import (
    GridTask,
    SerialBackend,
    stable_rows,
)
from repro.benchsuite.runner import BenchmarkRunner
from repro.config import TINY
from repro.fuzz.generator import fuzz_name
from repro.serve import Client, ReproServer, SingleFlight, inline_name
from repro.serve import service as service_module
from repro.serve.loadgen import (
    INLINE_OK,
    INLINE_PARSE_ERROR,
    INLINE_TYPE_ERROR,
    build_traffic,
)
from repro.serve.metrics import Metrics, quantile


def _server(tmp_path=None, **kwargs) -> ReproServer:
    cache = ArtifactCache(tmp_path / "cache") if tmp_path else None
    return ReproServer(config=TINY, cache=cache, port=0, **kwargs)


# ------------------------------------------------------------ status contract
def test_status_contract(tmp_path):
    async def main() -> None:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                status, body = await client.get("/healthz")
                assert status == 200 and body == {"ok": True}

                status, body = await client.post(
                    "/lint", {"source": INLINE_OK}
                )
                assert status == 200 and body["exit_code"] == 0

                status, body = await client.post(
                    "/lint", {"source": INLINE_PARSE_ERROR}
                )
                assert status == 422 and body["exit_code"] == 1
                assert any(
                    d["code"] == "RPA001" for d in body["diagnostics"]
                )

                status, body = await client.post(
                    "/compile", {"source": INLINE_TYPE_ERROR}
                )
                assert status == 422 and body["admitted"] is False
                assert any(
                    d["code"] == "RPA002" for d in body["diagnostics"]
                )

                # request at fault: missing field, bad type, unknown name
                status, body = await client.post("/compile", {})
                assert status == 400 and "source" in body["error"]
                status, body = await client.post(
                    "/measure", {"name": "no-such-benchmark"}
                )
                assert status == 400 and "unknown benchmark" in body["error"]
                status, body = await client.post(
                    "/measure", {"name": 7}
                )
                assert status == 400
                # a baseline is named in 'optimization'; a body with
                # 'optimizer'/'params' is refused, never measured as the
                # bare preset
                for retired in (
                    {"optimizer": "definitely-not-real"},
                    {"depth": 2, "optimizer": "peephole"},
                    {"depth": 2, "params": {"window": 8}},
                ):
                    status, body = await client.post(
                        "/measure", {"name": "length", **retired}
                    )
                    assert status == 400, retired
                    assert "preset+optimizer" in body["error"]
                status, body = await client.post(
                    "/measure",
                    {
                        "name": "length",
                        "depth": 2,
                        "optimization": "none+definitely-not-real",
                    },
                )
                assert status == 400 and "unknown pass" in body["error"]
                # a pass parameter the pass does not declare, or of the
                # wrong type, is the request's fault
                for path, payload in (
                    ("/measure", {"name": "length", "depth": 2,
                                  "optimization": "none+peephole(bogus=1)"}),
                    ("/measure", {"name": "length", "depth": 2,
                                  "optimization": "none+peephole(window=abc)"}),
                    ("/compile", {"source": INLINE_OK,
                                  "optimization": "none+zx-like(nope=2)"}),
                ):
                    status, body = await client.post(path, payload)
                    assert status == 400, (path, payload, body)
                    assert "bad parameters" in body["error"]
                status, body = await client.request(
                    "POST", "/measure", payload=None
                )
                assert status == 400  # empty body: 'name' missing

                status, _ = await client.get("/no/such/endpoint")
                assert status == 404
                status, _ = await client.get("/compile")
                assert status == 405

    asyncio.run(main())


def test_sized_entry_without_depth_is_rejected_before_batching(tmp_path):
    """A sized entry lints at the default size, but cannot compile without
    a recursion bound: the request is at fault (400 naming ``depth``), and
    no batch runs for it."""
    from repro.benchsuite.programs import get_source

    async def main() -> None:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                requests = [
                    ("/measure", {"name": "length", "optimization": "spire"}),
                    ("/measure", {"name": "length", "lint": False}),
                    ("/compile", {"source": get_source("length"), "entry": "length"}),
                ]
                for path, payload in requests:
                    status, body = await client.post(path, payload)
                    assert status == 400, (path, body)
                    assert "'depth'" in body["error"]
                _, metrics = await client.get("/metrics")
                assert metrics["counters"].get("batches", 0) == 0
                # the same requests with a depth are admitted and batched
                status, _ = await client.post(
                    "/measure", {"name": "length", "depth": 1}
                )
                assert status == 200
                _, metrics = await client.get("/metrics")
                assert metrics["counters"]["batches"] == 1

    asyncio.run(main())


def test_malformed_frame_closes_with_400(tmp_path):
    async def main() -> None:
        async with _server(tmp_path) as server:
            reader, writer = await asyncio.open_connection(
                server.host, server.port
            )
            writer.write(b"this is not http\r\n\r\n")
            await writer.drain()
            status_line = await reader.readuntil(b"\r\n")
            assert b" 400 " in status_line
            # framing is unrecoverable: the server closes the connection
            rest = await reader.read()
            assert b"malformed request line" in rest
            writer.close()
            await writer.wait_closed()

    asyncio.run(main())


# ------------------------------------------------------- execution round trip
def test_compile_roundtrip_and_repeat_replay(tmp_path):
    async def main() -> None:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                status, body = await client.post(
                    "/compile", {"source": INLINE_OK}
                )
                assert status == 200
                row = body["row"]
                assert body["entry"] == "main"
                assert body["name"] == inline_name(INLINE_OK, "main")
                assert row["t"] >= 0 and not row.get("failed")

                # the same request again: answered from the completed map,
                # flagged as a replay, bit-identical
                status, again = await client.post(
                    "/compile", {"source": INLINE_OK}
                )
                assert status == 200
                assert again["row"]["journal_resumed"] is True
                assert stable_rows([again["row"]]) == stable_rows([row])

                status, metrics = await client.get("/metrics")
                assert metrics["counters"]["journal_replays"] == 1

    asyncio.run(main())


def test_journal_survives_restart(tmp_path):
    """A restarted server (same cache root) must not recompile."""
    payload = {"name": fuzz_name(7, 0), "optimization": "none"}

    async def first() -> Dict[str, Any]:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                status, body = await client.post("/measure", payload)
                assert status == 200
                return body["row"]

    async def second() -> Tuple[Dict[str, Any], Dict[str, Any]]:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                status, body = await client.post("/measure", payload)
                assert status == 200
                _, metrics = await client.get("/metrics")
                return body["row"], metrics

    row = asyncio.run(first())
    journal = tmp_path / "cache" / "journal" / "serve.jsonl"
    assert journal.exists() and journal.read_text().strip()

    replayed, metrics = asyncio.run(second())
    assert replayed["journal_resumed"] is True
    assert stable_rows([replayed]) == stable_rows([row])
    assert metrics["counters"].get("compile_executions") is None
    assert metrics["counters"]["journal_replays"] == 1

    asyncio.run(first())  # and the journal is still intact afterwards


# ------------------------------------------------------- single-flight dedupe
def test_concurrent_identical_requests_compile_once(tmp_path, monkeypatch):
    """8 clients x 3 distinct keys, all in flight together: each key
    compiles exactly once.  Counted two ways — a monkeypatch tap on
    ``compile_checked`` (ground truth) and the server's own
    ``max_compiles_per_key`` gauge (what the loadgen asserts)."""
    import repro.benchsuite.runner as runner_mod

    compiles: List[str] = []
    real_compile = runner_mod.compile_checked

    def counting_compile(checked, *args, **kwargs):
        compiles.append(checked.lowered.entry)
        return real_compile(checked, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "compile_checked", counting_compile)

    names = [fuzz_name(11, index) for index in range(3)]

    async def main() -> None:
        # a longer batch window guarantees the duplicates are admitted
        # while the leader is still queued — the race the dedupe exists for
        async with _server(tmp_path, batch_window=0.1) as server:
            clients = [Client(server.host, server.port) for _ in range(8)]

            async def post(client: Client, name: str):
                return await client.post(
                    "/measure", {"name": name, "optimization": "none"}
                )

            try:
                results = await asyncio.gather(
                    *[
                        post(client, names[index % len(names)])
                        for index, client in enumerate(clients)
                    ]
                )
                rows = []
                for status, body in results:
                    assert status == 200
                    assert not body["row"].get("failed")
                    rows.append(body["row"])
                async with Client(server.host, server.port) as probe:
                    _, metrics = await probe.get("/metrics")
            finally:
                for client in clients:
                    await client.close()

        gauges = metrics["gauges"]
        assert gauges["max_compiles_per_key"] == 1
        assert gauges["distinct_keys"] == len(names)
        assert metrics["counters"]["dedupe_hits"] == 8 - len(names)
        # coalesced requests share the leader's row, bit for bit
        by_name: Dict[str, List[Dict[str, Any]]] = {}
        for row in rows:
            by_name.setdefault(row["name"], []).append(row)
        for group in by_name.values():
            first = stable_rows([group[0]])
            for row in group[1:]:
                assert stable_rows([row]) == first

    asyncio.run(main())
    assert len(compiles) == len(names)


def test_single_flight_unit():
    async def main() -> None:
        flight = SingleFlight()
        leader, future = flight.admit("k")
        assert leader and len(flight) == 1
        follower, same = flight.admit("k")
        assert not follower and same is future
        flight.resolve("k", {"t": 1})
        assert await future == {"t": 1}
        assert len(flight) == 0 and flight.coalesced == 1

        # after resolution the key opens a fresh flight
        leader, future = flight.admit("k")
        assert leader
        flight.reject("k", RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            await future

    asyncio.run(main())


def test_admission_lint_cache_is_bounded(monkeypatch):
    """Every new program would otherwise leave one lint report behind: the
    memo keeps at most its bound, and the newest report is still a hit."""
    calls: List[str] = []

    def fake_lint(source, **kwargs):
        calls.append(source)
        return object()

    monkeypatch.setattr(service_module, "lint_source", fake_lint)
    service = service_module.CompileService(config=TINY)
    bound = service_module.LINT_CACHE_MAX
    sources = [f"fun main{i}() {{ }}" for i in range(bound + 50)]
    reports = [service.lint(source) for source in sources]
    assert len(calls) == len(sources)
    assert len(service._lint_cache) == bound
    assert service.lint(sources[-1]) is reports[-1]
    assert len(calls) == len(sources)
    service.lint(sources[0])  # evicted: linted again
    assert len(calls) == len(sources) + 1


def test_lint_cache_tells_no_entry_from_entry_named_none(tmp_path):
    """``None`` is a valid Tower function name: linting the default entry
    (``main``, which does not typecheck) must not answer for it, so a
    compile of the entry ``None`` is admitted."""
    source = (
        "fun None(x: uint) -> uint { let y <- x + 1; return y; }\n"
        "fun main(x: uint) -> uint { let y <- z; return y; }\n"
    )
    service = service_module.CompileService(config=TINY)
    assert [d.code for d in service.lint(source).errors] == ["RPA002"]
    report = service.lint(source, entry="None")
    assert report.entry == "None" and not report.diagnostics

    async def main() -> None:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                status, _ = await client.post("/compile", {"source": source})
                assert status == 422
                status, body = await client.post(
                    "/compile", {"source": source, "entry": "None"}
                )
                assert status == 200, body
                assert body["entry"] == "None" and not body["row"].get("failed")

    asyncio.run(main())


# ------------------------------------------------------------- one frontend
def _count_calls(monkeypatch, function, calls: List[Tuple[tuple, dict]]) -> None:
    """Record every call of ``function``, however the package imported it:
    each ``repro`` module attribute bound to it is patched."""

    def counted(*args, **kwargs):
        calls.append((args, kwargs))
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, attr, counted)


def test_one_compile_runs_the_frontend_once(tmp_path, monkeypatch):
    """At ``--jobs 1`` the admission lint and the compile of a new program
    share one parse, one desugar and one strict typecheck, and the row is
    the one a fresh runner measures."""
    from repro.benchsuite.programs import get_source
    from repro.ir.typecheck import check_program
    from repro.lang.desugar import lower_entry
    from repro.lang.parser import parse_program

    source = get_source("length") + "\n// a program the server has not seen\n"
    parses: List[Tuple[tuple, dict]] = []
    lowerings: List[Tuple[tuple, dict]] = []
    checks: List[Tuple[tuple, dict]] = []
    _count_calls(monkeypatch, parse_program, parses)
    _count_calls(monkeypatch, lower_entry, lowerings)
    _count_calls(monkeypatch, check_program, checks)

    async def main() -> Dict[str, Any]:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                status, body = await client.post(
                    "/compile",
                    {
                        "source": source,
                        "entry": "length",
                        "depth": 2,
                        "optimization": "spire",
                    },
                )
                assert status == 200, body
                return body

    body = asyncio.run(main())
    assert [args[0] for args, _ in parses] == [source]
    assert [args[1:3] for args, _ in lowerings] == [("length", 2)]
    strict = [kwargs for _, kwargs in checks if not kwargs.get("relaxed")]
    assert len(strict) == 1
    monkeypatch.undo()
    fresh = BenchmarkRunner(TINY).measure(body["name"], 2, "spire").row()
    assert stable_rows([body["row"]]) == stable_rows([fresh])


# -------------------------------------------------------- serial bit-identity
def test_rows_match_serial_no_server_baseline(tmp_path):
    """Rows served over HTTP (cache + journal + batching in play) must be
    bit-identical, modulo volatile keys, to a fresh serial run."""
    names = [fuzz_name(23, 0), fuzz_name(23, 1)]
    tasks = [GridTask(name, None, "none") for name in names]

    async def served() -> List[Dict[str, Any]]:
        async with _server(tmp_path) as server:
            rows = []
            async with Client(server.host, server.port) as client:
                for name in names:
                    status, body = await client.post(
                        "/measure", {"name": name, "optimization": "none"}
                    )
                    assert status == 200
                    rows.append(body["row"])
            return rows

    via_server = asyncio.run(served())
    baseline = SerialBackend().run(BenchmarkRunner(TINY), tasks)
    assert stable_rows(via_server) == stable_rows(baseline)


# ----------------------------------------------------------- metrics & stats
def test_batch_stats_are_published_before_its_last_answer(tmp_path, monkeypatch):
    """A slow stats write must finish before the answer goes out, or a
    client's next ``/cache/stats`` can count its staging file."""
    published = threading.Event()
    publish = ArtifactCache.publish_stats

    def slow_publish(cache: ArtifactCache) -> None:
        time.sleep(0.2)
        publish(cache)
        published.set()

    monkeypatch.setattr(ArtifactCache, "publish_stats", slow_publish)

    async def main() -> None:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                status, _ = await client.post("/compile", {"source": INLINE_OK})
                assert status == 200
                assert published.is_set()
                _, stats = await client.get("/cache/stats")
                assert stats["usage"]["tmp_files"] == 0

    asyncio.run(main())


def test_metrics_and_cache_stats_shape(tmp_path):
    async def main() -> None:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                for _ in range(3):
                    await client.post("/lint", {"source": INLINE_OK})
                await client.post("/compile", {"source": INLINE_OK})
                await client.post("/compile", {"source": INLINE_PARSE_ERROR})

                _, metrics = await client.get("/metrics")
                lint = metrics["endpoints"]["lint"]
                assert lint["requests"] == 3 and lint["errors"] == 0
                for key in ("p50_seconds", "p99_seconds", "max_seconds"):
                    assert lint[key] >= 0.0
                compile_stats = metrics["endpoints"]["compile"]
                assert compile_stats["requests"] == 2
                assert compile_stats["errors"] == 1  # the 422
                assert metrics["counters"]["admission_rejects"] == 1
                gauges = metrics["gauges"]
                assert gauges["queue_depth"] == 0
                assert gauges["inflight_keys"] == 0
                assert gauges["completed_keys"] == 1

                _, stats = await client.get("/cache/stats")
                assert stats["cache"] == str(tmp_path / "cache")
                assert stats["usage"]["entries"] >= 1
                assert stats["usage"]["tmp_files"] == 0
                assert set(stats["stats"]) >= {"hits", "misses"}

    asyncio.run(main())


def test_quantiles_nearest_rank():
    samples = [float(value) for value in range(1, 102)]  # 1..101
    assert quantile(samples, 0.5) == 51.0  # the true median
    assert quantile(samples, 0.99) == 100.0
    assert quantile(samples, 1.0) == 101.0
    assert quantile(samples, 0.0) == 1.0
    assert quantile([3.0], 0.99) == 3.0
    assert quantile([], 0.5) is None

    metrics = Metrics()
    metrics.observe("x", 0.25, 200)
    metrics.observe("x", 0.75, 500)
    snap = metrics.snapshot()["endpoints"]["x"]
    assert snap["requests"] == 2 and snap["errors"] == 1
    assert snap["max_seconds"] == 0.75


# ------------------------------------------------------------------ lifecycle
def test_shutdown_endpoint_drains_and_refuses_new_connections(tmp_path):
    async def main() -> None:
        server = _server(tmp_path)
        await server.start()
        try:
            async with Client(server.host, server.port) as client:
                status, body = await client.post("/compile", {"source": INLINE_OK})
                assert status == 200
                status, body = await client.post("/shutdown", {})
                assert status == 200 and body["shutting_down"] is True
            async with Client(server.host, server.port) as late:
                status, body = await late.get("/healthz")
                assert status == 503
        finally:
            await server.close()
        # the journal closed clean: every line parses
        journal = tmp_path / "cache" / "journal" / "serve.jsonl"
        lines = journal.read_text().splitlines()
        assert len(lines) >= 2  # header + the compiled row
        import json

        for line in lines:
            json.loads(line)

    asyncio.run(main())


# ------------------------------------------------------------------- loadgen
def test_build_traffic_mix():
    requests = build_traffic([1], fuzz_count=4, fuzz_seed=3)
    by_path: Dict[str, int] = {}
    for request in requests:
        by_path[request["path"]] = by_path.get(request["path"], 0) + 1
    assert by_path["/measure"] == 6 + 4  # smoke grid + fuzz stream
    assert by_path["/compile"] == 3  # one clean, two admission rejects
    assert by_path["/lint"] == 1
    rejects = [r for r in requests if r["expect"] == "reject"]
    assert len(rejects) == 2
    assert all(r["path"] == "/compile" for r in rejects)
    # deterministic: the same seed builds the same traffic
    assert build_traffic([1], fuzz_count=4, fuzz_seed=3) == requests
