"""Minimal HTTP/1.1 framing over asyncio streams (stdlib only).

The service deliberately avoids third-party HTTP stacks: requests and
responses are always small JSON documents, so the protocol surface we
need is a request line, headers, a ``Content-Length`` body, and
keep-alive connection reuse.  Two pieces live here:

* :func:`serve_connection` — the per-connection loop the server runs:
  parse requests, dispatch them to an async handler, write JSON
  responses, keep the connection open until the peer closes it;
* :class:`Client` — a persistent-connection JSON client used by the
  load generator, the CLI and the tests (the container has no
  ``requests``/``aiohttp``).

Framing limits are deliberately tight (64 KiB of headers, 8 MiB of
body): anything bigger than a source file plus a config is not a
legitimate request to this service.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Awaitable, Callable, Dict, Optional, Tuple

MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 8 * 1024 * 1024

REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

#: handler signature: (method, path, body-bytes) -> (status, JSON-able)
Handler = Callable[[str, str, bytes], Awaitable[Tuple[int, Any]]]


class ProtocolError(Exception):
    """A malformed request frame (the connection is closed after it)."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _read_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    """One request frame: (method, path, headers, body); None at EOF."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None  # clean close between requests
        raise ProtocolError(400, "truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise ProtocolError(413, "request head too large") from exc
    if len(head) > MAX_HEADER_BYTES:
        raise ProtocolError(413, "request head too large")
    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise ProtocolError(400, f"malformed request line: {lines[0]!r}")
    method, path, _version = parts
    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep:
            raise ProtocolError(400, f"malformed header line: {line!r}")
        headers[name.strip().lower()] = value.strip()
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise ProtocolError(400, f"bad Content-Length: {length_text!r}")
    if length < 0 or length > MAX_BODY_BYTES:
        raise ProtocolError(413, f"body of {length} bytes refused")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise ProtocolError(400, "truncated request body") from exc
    return method, path.split("?", 1)[0], headers, body


def render_response(
    status: int, payload: Any, *, keep_alive: bool = True
) -> bytes:
    """A full JSON response frame, Content-Length delimited."""
    body = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
    reason = REASONS.get(status, "Unknown")
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    return head.encode("latin-1") + body


async def serve_connection(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    handler: Handler,
) -> None:
    """The keep-alive request loop of one client connection.

    Handler exceptions become 500 responses (the connection survives);
    protocol errors get their status and close the connection — the
    framing is broken, so there is no trustworthy boundary to resume at.
    """
    try:
        while True:
            try:
                request = await _read_request(reader)
            except ProtocolError as exc:
                writer.write(
                    render_response(
                        exc.status, {"error": str(exc)}, keep_alive=False
                    )
                )
                await writer.drain()
                break
            if request is None:
                break
            method, path, headers, body = request
            try:
                status, payload = await handler(method, path, body)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # handler defect: report, keep serving
                status, payload = 500, {
                    "error": f"internal error: {type(exc).__name__}: {exc}"
                }
            close = headers.get("connection", "").lower() == "close"
            writer.write(render_response(status, payload, keep_alive=not close))
            await writer.drain()
            if close:
                break
    except (ConnectionResetError, BrokenPipeError):
        pass  # peer vanished mid-frame: nothing left to tell it
    except asyncio.CancelledError:
        # server shutdown cancelled this connection's task.  Swallowing
        # the cancellation (instead of re-raising) matters: a task that
        # ends *cancelled* trips asyncio.streams' done-callback, which
        # calls task.exception() and logs a spurious "Exception in
        # callback" for every open keep-alive connection.
        pass
    finally:
        # the event loop's shutdown can cancel this task while it waits
        # for the close: swallowed for the same reason
        try:
            writer.close()
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError, asyncio.CancelledError):
            pass


class Client:
    """A persistent-connection JSON client for the service.

    Sync wrapper free: the load generator and tests drive it from
    asyncio.  One client holds one connection; reconnects transparently
    when the server closed it between requests (keep-alive timeout).
    """

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            try:
                self._writer.close()
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass
        self._reader = None
        self._writer = None

    async def __aenter__(self) -> "Client":
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def request(
        self, method: str, path: str, payload: Any = None
    ) -> Tuple[int, Any]:
        """One round trip; returns (status, decoded JSON body)."""
        attempts = 2  # second try absorbs a server-side keep-alive close
        for attempt in range(attempts):
            if self._writer is None:
                await self._connect()
            try:
                return await self._round_trip(method, path, payload)
            except (
                ConnectionResetError,
                BrokenPipeError,
                asyncio.IncompleteReadError,
                OSError,
            ):
                await self.close()
                if attempt == attempts - 1:
                    raise
        raise AssertionError("unreachable")

    async def _round_trip(
        self, method: str, path: str, payload: Any
    ) -> Tuple[int, Any]:
        assert self._reader is not None and self._writer is not None
        body = b""
        if payload is not None:
            body = json.dumps(payload, sort_keys=True).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = (await self._reader.readuntil(b"\r\n")).decode("latin-1")
        parts = status_line.split(" ", 2)
        status = int(parts[1])
        headers: Dict[str, str] = {}
        while True:
            line = (await self._reader.readuntil(b"\r\n")).decode("latin-1")
            line = line.rstrip("\r\n")
            if not line:
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        raw = await self._reader.readexactly(length) if length else b""
        decoded = json.loads(raw.decode("utf-8")) if raw else None
        if headers.get("connection", "").lower() == "close":
            await self.close()
        return status, decoded

    async def get(self, path: str) -> Tuple[int, Any]:
        return await self.request("GET", path)

    async def post(self, path: str, payload: Any) -> Tuple[int, Any]:
        return await self.request("POST", path, payload)
