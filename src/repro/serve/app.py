"""The ``repro serve`` application: routing, lifecycle, signals.

:class:`ReproServer` wires the HTTP framing layer to the endpoint
handlers around one shared :class:`CompileService`, and owns the
lifecycle: bind, serve, drain, close.  ``POST /shutdown`` (and SIGINT /
SIGTERM under :func:`serve_main`) trigger a clean stop — in-flight
requests finish and the batch consumer drains, so every answered row is
in the artifact cache with no staging file left behind.
"""

from __future__ import annotations

import asyncio
import sys
import time
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

from ..benchsuite.cache import ArtifactCache
from ..benchsuite.resilience import RetryPolicy
from ..config import CompilerConfig
from . import handlers
from .http import render_response, serve_connection
from .service import DEFAULT_BATCH_WINDOW, CompileService

EndpointFn = Callable[
    [CompileService, Dict[str, Any]], Awaitable[Tuple[int, Any]]
]


class ReproServer:
    """One service instance bound to a host/port."""

    #: (method, path) -> (metric label, handler)
    ROUTES: Dict[Tuple[str, str], Tuple[str, EndpointFn]] = {
        ("POST", "/compile"): ("compile", handlers.handle_compile),
        ("POST", "/measure"): ("measure", handlers.handle_measure),
        ("POST", "/lint"): ("lint", handlers.handle_lint),
        ("GET", "/cache/stats"): ("cache_stats", handlers.handle_cache_stats),
        ("GET", "/metrics"): ("metrics", handlers.handle_metrics),
        ("GET", "/healthz"): ("healthz", handlers.handle_healthz),
    }

    def __init__(
        self,
        config: Optional[CompilerConfig] = None,
        cache: Optional[ArtifactCache] = None,
        host: str = "127.0.0.1",
        port: int = 0,
        jobs: int = 1,
        policy: Optional[RetryPolicy] = None,
        batch_window: float = DEFAULT_BATCH_WINDOW,
        cache_max_bytes: Optional[int] = None,
    ) -> None:
        self.host = host
        self.port = port
        self.service = CompileService(
            config=config,
            cache=cache,
            jobs=jobs,
            policy=policy,
            batch_window=batch_window,
            cache_max_bytes=cache_max_bytes,
        )
        self._server: Optional[asyncio.base_events.Server] = None
        self._shutdown = asyncio.Event()

    # -------------------------------------------------------------- routing
    async def handle(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Any]:
        """Dispatch one request; every response is timed into /metrics."""
        start = time.perf_counter()
        if method == "POST" and path == "/shutdown":
            self._shutdown.set()
            status, payload = 200, {"shutting_down": True}
            self.service.metrics.observe("shutdown", 0.0, status)
            return status, payload
        route = self.ROUTES.get((method, path))
        if route is None:
            known = {p for (_m, p) in self.ROUTES} | {"/shutdown"}
            if path in known:
                return 405, {"error": f"{method} not allowed on {path}"}
            return 404, {"error": f"no such endpoint: {path}"}
        label, endpoint = route
        try:
            decoded = handlers.decode_body(body)
            status, payload = await endpoint(self.service, decoded)
        except handlers.RequestError as exc:
            status, payload = 400, {"error": str(exc)}
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            status = 500
            payload = {"error": f"internal error: {type(exc).__name__}: {exc}"}
        self.service.metrics.observe(
            label, time.perf_counter() - start, status
        )
        return status, payload

    # ------------------------------------------------------------ lifecycle
    async def start(self) -> None:
        await self.service.start()
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._shutdown.is_set():
            writer.write(
                render_response(
                    503, {"error": "shutting down"}, keep_alive=False
                )
            )
            try:
                await writer.drain()
            finally:
                writer.close()
            return
        await serve_connection(reader, writer, self.handle)

    async def wait_shutdown(self) -> None:
        await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    async def close(self) -> None:
        """Stop accepting and finish in-flight work."""
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()


async def run_server(server: ReproServer, banner: bool = True) -> None:
    """Serve until shutdown is requested (endpoint or signal)."""
    import signal

    await server.start()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, server.request_shutdown)
        except (NotImplementedError, RuntimeError):  # non-unix / nested loop
            pass
    if banner:
        print(
            f"repro serve listening on http://{server.host}:{server.port}",
            file=sys.stderr,
            flush=True,
        )
    try:
        await server.wait_shutdown()
    finally:
        await server.close()


def serve_main(
    config: Optional[CompilerConfig] = None,
    cache_dir: Optional[str] = None,
    host: str = "127.0.0.1",
    port: int = 8351,
    jobs: int = 1,
    policy: Optional[RetryPolicy] = None,
    batch_window: float = DEFAULT_BATCH_WINDOW,
    cache_max_bytes: Optional[int] = None,
) -> int:
    """The blocking entry point behind ``repro serve``."""
    cache = ArtifactCache(cache_dir) if cache_dir else None
    server = ReproServer(
        config=config,
        cache=cache,
        host=host,
        port=port,
        jobs=jobs,
        policy=policy,
        batch_window=batch_window,
        cache_max_bytes=cache_max_bytes,
    )
    try:
        asyncio.run(run_server(server))
    except KeyboardInterrupt:
        pass
    return 0
