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
* durability: a restarted server answers repeats from the artifact
  cache without recompiling;
* the ``/metrics`` and ``/cache/stats`` payload shapes.
"""

from __future__ import annotations

import asyncio
import sys
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


def test_sized_entry_without_depth_is_rejected_before_batching(tmp_path, monkeypatch):
    """A sized entry lints at the default size, but cannot compile without
    a recursion bound: the request is at fault (400 naming ``depth``), and
    nothing compiles for it."""
    import repro.benchsuite.runner as runner_mod
    from repro.benchsuite.programs import get_source

    compiles: List[str] = []
    real_compile = runner_mod.compile_checked

    def counting_compile(checked, *args, **kwargs):
        compiles.append(checked.lowered.entry)
        return real_compile(checked, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "compile_checked", counting_compile)

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
                assert compiles == []
                assert "compile_executions" not in metrics["counters"]
                # the same request with a depth is admitted and compiles
                status, _ = await client.post(
                    "/measure", {"name": "length", "depth": 1}
                )
                assert status == 200
                _, metrics = await client.get("/metrics")
                assert compiles == ["length"]
                assert metrics["counters"]["compile_executions"] == 1

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
                # flagged as a replay (nothing compiled), bit-identical
                status, again = await client.post(
                    "/compile", {"source": INLINE_OK}
                )
                assert status == 200
                assert again["row"]["cached"] is True
                assert stable_rows([again["row"]]) == stable_rows([row])

                status, metrics = await client.get("/metrics")
                assert metrics["counters"]["memo_replays"] == 1

    asyncio.run(main())


def test_restart_replays_from_the_cache(tmp_path):
    """A restarted server (same cache root) must not recompile: the
    artifact cache is its only restart store."""
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
    assert not (tmp_path / "cache" / "journal").exists()

    replayed, metrics = asyncio.run(second())
    assert replayed["cached"] is True
    assert stable_rows([replayed]) == stable_rows([row])
    assert metrics["counters"].get("compile_executions") is None
    assert metrics["counters"]["cache_replays"] == 1


# ------------------------------------------------------- single-flight dedupe
def test_concurrent_identical_requests_compile_once(tmp_path, monkeypatch):
    """8 clients x 3 distinct keys, all in flight together: each key
    compiles exactly once.  Counted two ways — a monkeypatch tap on
    ``compile_checked`` (ground truth) and the server's own
    ``max_compiles_per_key`` gauge (what the loadgen asserts)."""
    import repro.benchsuite.runner as runner_mod

    import threading

    compiles: List[str] = []
    real_compile = runner_mod.compile_checked
    admitted = threading.Event()

    def counting_compile(checked, *args, **kwargs):
        # the first compile holds until every request is admitted, so the
        # duplicates arrive while their leader is in flight — the race the
        # dedupe exists for
        assert admitted.wait(timeout=30)
        compiles.append(checked.lowered.entry)
        return real_compile(checked, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "compile_checked", counting_compile)

    names = [fuzz_name(11, index) for index in range(3)]

    async def main() -> None:
        async with _server(tmp_path) as server:
            clients = [Client(server.host, server.port) for _ in range(8)]
            flight = server.service.flight

            async def release() -> None:
                while flight.started + flight.coalesced < len(clients):
                    await asyncio.sleep(0.001)
                admitted.set()

            async def post(client: Client, name: str):
                return await client.post(
                    "/measure", {"name": name, "optimization": "none"}
                )

            try:
                results, _ = await asyncio.gather(
                    asyncio.gather(
                        *[
                            post(client, names[index % len(names)])
                            for index, client in enumerate(clients)
                        ]
                    ),
                    release(),
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


def test_lint_cache_tells_no_entry_from_entry_named_none(tmp_path):
    """``None`` is a valid Tower function name: linting the default entry
    (``main``, which does not typecheck) must not answer for it, so a
    compile of the entry ``None`` is admitted."""
    source = (
        "fun None(x: uint) -> uint { let y <- x + 1; return y; }\n"
        "fun main(x: uint) -> uint { let y <- z; return y; }\n"
    )

    async def main() -> None:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                status, body = await client.post("/lint", {"source": source})
                assert status == 422
                assert [d["code"] for d in body["diagnostics"]] == ["RPA002"]
                status, body = await client.post(
                    "/lint", {"source": source, "entry": "None"}
                )
                assert status == 200, body
                assert body["entry"] == "None" and not body["diagnostics"]
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


def _record_threads(monkeypatch, function, idents: List[int]) -> None:
    """Record the thread of every call of ``function``, however the
    package imported it."""
    import threading

    def recorded(*args, **kwargs):
        idents.append(threading.get_ident())
        return function(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, attr, recorded)


def test_event_loop_runs_no_frontend_and_stays_responsive(tmp_path, monkeypatch):
    """At ``--jobs 1`` the admission lint runs on the task thread: while
    one client's ``/compile`` lints for a second, another client's
    ``/healthz`` and a repeated ``/measure`` answer at once, and no parse,
    desugar or typecheck ever runs on the event loop."""
    import threading
    import time

    from repro.ir.typecheck import check_program
    from repro.lang.desugar import lower_entry
    from repro.lang.parser import parse_program

    idents: List[int] = []
    for function in (parse_program, lower_entry, check_program):
        _record_threads(monkeypatch, function, idents)
    real_lint = service_module.lint_source

    def slow_lint(*args, **kwargs):
        time.sleep(1.0)
        return real_lint(*args, **kwargs)

    monkeypatch.setattr(service_module, "lint_source", slow_lint)
    repeat = {"name": "length", "depth": 1, "lint": False}
    served: Dict[str, Any] = {}
    ready = threading.Event()

    async def serve() -> None:
        # the server gets a thread and an event loop of its own, so that a
        # blocked loop shows in the clients' timings
        async with _server(tmp_path) as server:
            served.update(
                server=server,
                loop=asyncio.get_running_loop(),
                thread=threading.get_ident(),
            )
            ready.set()
            await server.wait_shutdown()

    thread = threading.Thread(target=asyncio.run, args=(serve(),))
    thread.start()
    assert ready.wait(timeout=30)
    server = served["server"]

    async def main() -> None:
        async with Client(server.host, server.port) as first, Client(
            server.host, server.port
        ) as second:
            status, _ = await second.post("/measure", repeat)
            assert status == 200
            compiling = asyncio.ensure_future(
                first.post("/compile", {"source": INLINE_OK})
            )
            await asyncio.sleep(0.1)  # the compile's lint is running
            for path, payload in (("/healthz", None), ("/measure", repeat)):
                start = time.perf_counter()
                if payload is None:
                    status, body = await second.get(path)
                else:
                    status, body = await second.post(path, payload)
                assert status == 200, body
                assert time.perf_counter() - start < 0.2, path
                assert not compiling.done()
            assert body["row"]["cached"] is True
            status, body = await compiling
            assert status == 200, body
            await second.post("/shutdown", {})

    try:
        asyncio.run(main())  # ends with POST /shutdown
    except BaseException:
        served["loop"].call_soon_threadsafe(server.request_shutdown)
        raise
    finally:
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert idents and served["thread"] not in idents


def test_measure_resolves_a_compiled_src_name(tmp_path, monkeypatch):
    """``/measure`` of a ``src:`` name answers while the service remembers
    the program; a forgotten one is an unknown benchmark, until a repeat
    of its ``/compile``, answered from the memo, recalls it."""
    from repro.benchsuite import programs
    from repro.bounded import BoundedCache

    monkeypatch.setattr(programs, "_INLINE", BoundedCache(1))
    other = INLINE_OK + "// another program\n"

    async def main() -> None:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                status, compiled = await client.post("/compile", {"source": INLINE_OK})
                assert status == 200
                name = compiled["name"]
                status, body = await client.post(
                    "/measure", {"name": name, "optimization": "none"}
                )
                assert status == 200, body
                assert stable_rows([body["row"]]) == stable_rows([compiled["row"]])
                status, _ = await client.post("/compile", {"source": other})
                assert status == 200
                status, body = await client.post(
                    "/measure", {"name": name, "depth": 1}
                )
                assert status == 400 and "unknown benchmark" in body["error"]
                status, again = await client.post("/compile", {"source": INLINE_OK})
                assert status == 200 and again["row"]["cached"] is True
                status, body = await client.post(
                    "/measure", {"name": name, "depth": 1}
                )
                assert status == 200, body
                assert body["row"]["t"] == compiled["row"]["t"]

    asyncio.run(main())
    # the tasks bound the program while they ran, and left no binding
    name = inline_name(INLINE_OK, "main")
    assert name not in programs.SOURCES and name not in programs.ENTRIES


def test_service_maps_stay_bounded(tmp_path, monkeypatch):
    """The completed-row memo and the per-key compile counts keep their
    bounds over distinct programs; a request evicted from the memo is
    dispatched again and replays from the artifact cache, compiling
    nothing."""
    import repro.benchsuite.runner as runner_mod

    monkeypatch.setattr(service_module, "COMPLETED_MAX", 4)
    monkeypatch.setattr(service_module, "EXECUTIONS_WINDOW", 4)
    compiles: List[str] = []
    real_compile = runner_mod.compile_checked

    def counting_compile(checked, *args, **kwargs):
        compiles.append(checked.lowered.entry)
        return real_compile(checked, *args, **kwargs)

    monkeypatch.setattr(runner_mod, "compile_checked", counting_compile)
    requests = [
        {"source": INLINE_OK + f"// program {index}\n"} for index in range(10)
    ]

    async def main() -> None:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                for payload in requests:
                    status, _ = await client.post("/compile", payload)
                    assert status == 200
                    _, metrics = await client.get("/metrics")
                    gauges = metrics["gauges"]
                    assert gauges["completed_keys"] <= 4
                    assert gauges["distinct_keys"] <= 4
                assert len(compiles) == 10
                status, body = await client.post("/compile", requests[0])
                assert status == 200 and body["row"]["cached"] is True
                _, metrics = await client.get("/metrics")
                assert metrics["counters"]["cache_replays"] == 1
                assert "memo_replays" not in metrics["counters"]
        assert len(compiles) == 10

    asyncio.run(main())


# -------------------------------------------------------- serial bit-identity
def test_rows_match_serial_no_server_baseline(tmp_path):
    """Rows served over HTTP (cache + batching in play) must be
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


# -------------------------------------------------------------- worker pool
def test_pool_forks_once_and_serves_programs_it_never_saw(tmp_path):
    """At ``--jobs 2`` the workers outlive their requests: three inline
    programs first seen after the first request answer the rows a serial
    runner measures.  One request at a time never leaves the first worker
    busy, so it takes every one (``worker_starts`` 1)."""
    from repro.benchsuite.programs import get_source

    sources = [
        get_source("length") + f"\n// program {index}\n" for index in range(3)
    ]

    async def main() -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        async with _server(tmp_path, jobs=2) as server:
            async with Client(server.host, server.port) as client:
                status, body = await client.post(
                    "/measure", {"name": "length", "depth": 1}
                )
                assert status == 200, body
                bodies = []
                for source in sources:
                    status, body = await client.post(
                        "/compile",
                        {
                            "source": source,
                            "entry": "length",
                            "depth": 2,
                            "optimization": "none+peephole",
                        },
                    )
                    assert status == 200, body
                    bodies.append(body)
                _, metrics = await client.get("/metrics")
        return bodies, metrics

    bodies, metrics = asyncio.run(main())
    assert metrics["gauges"]["worker_starts"] == 1
    for body in bodies:
        assert not body["row"].get("failed") and not body["row"]["cached"]
        fresh = BenchmarkRunner(TINY).measure(body["name"], 2, "none+peephole")
        assert stable_rows([body["row"]]) == stable_rows([fresh.row()])


# ----------------------------------------------------------- metrics & stats
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
                # the lint report, the row and the rejection
                assert gauges["completed_keys"] == 3

                _, stats = await client.get("/cache/stats")
                assert stats["cache"] == str(tmp_path / "cache")
                assert stats["usage"]["entries"] >= 1
                assert stats["usage"]["tmp_files"] == 0
                assert set(stats["stats"]) >= {"hits", "misses"}

    asyncio.run(main())


def test_repeated_lint_and_rejection_are_answered_from_the_memo(tmp_path, monkeypatch):
    """A repeated ``/lint`` and a repeated rejected ``/compile`` answer as
    they did the first time, with no second lint."""
    lints: List[str] = []
    real_lint = service_module.lint_source

    def counting_lint(source, *args, **kwargs):
        lints.append(source)
        return real_lint(source, *args, **kwargs)

    monkeypatch.setattr(service_module, "lint_source", counting_lint)

    async def main() -> Dict[str, Any]:
        async with _server(tmp_path) as server:
            async with Client(server.host, server.port) as client:
                for path, payload, status in (
                    ("/lint", {"source": INLINE_OK}, 200),
                    ("/compile", {"source": INLINE_PARSE_ERROR}, 422),
                ):
                    first = await client.post(path, payload)
                    assert first[0] == status, first
                    assert await client.post(path, payload) == first
                _, metrics = await client.get("/metrics")
        return metrics

    metrics = asyncio.run(main())
    assert lints == [INLINE_OK, INLINE_PARSE_ERROR]
    assert metrics["counters"]["memo_replays"] == 2
    assert metrics["counters"]["admission_rejects"] == 2


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
        # no staging file is left, and the answered row is in the cache
        cache = ArtifactCache(tmp_path / "cache")
        assert cache.tmp_files() == []
        point = BenchmarkRunner(TINY, cache=cache).measure(
            inline_name(INLINE_OK, "main")
        )
        assert point.cached

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
