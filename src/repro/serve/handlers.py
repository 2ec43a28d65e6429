"""Endpoint logic of ``repro serve``.

Every handler takes the shared :class:`~repro.serve.service.CompileService`
plus the decoded JSON request body and returns ``(status, payload)``.  A
handler checks the request's fields and builds one
:class:`~repro.serve.service.ServeTask`; everything that needs the
program's text parsed — the admission lint, the default entry point,
whether the entry takes a ``depth`` — runs in that task, off the event
loop, and its answer is the response.  The status discipline mirrors the
linter's exit-code contract (``repro lint``: 0 clean / 1 error findings /
2 usage / 3 internal):

========  ==========================================================
status    meaning
========  ==========================================================
200       clean (warnings, if any, ride along in the payload)
422       the *program* is at fault — admission lint found errors
400       the *request* is at fault — missing/ill-typed fields (a
          sized entry without ``depth`` included), unknown
          benchmark (a ``src:`` name whose program the artifact
          cache does not hold, or any ``src:`` name on a server
          without one), bad pipeline spec (an unknown pass, or a
          parameter the pass does not declare or of the wrong type),
          or an ``optimizer``/``params`` field, since a baseline is
          named in ``optimization`` (exit 2's analog)
500       the *service* is at fault — handler defect or a failure
          row out of the execution backend (exit 3's analog)
========  ==========================================================
"""

from __future__ import annotations

import json
from typing import Any, Dict, Tuple

from ..benchsuite.cache import source_sha
from ..benchsuite.programs import SOURCES, is_fuzz_name, is_inline_name
from .service import CompileService, ServeTask

Response = Tuple[int, Any]


class RequestError(Exception):
    """A malformed request body (becomes a 400)."""


def _field(
    body: Dict[str, Any],
    name: str,
    kind,
    required: bool = False,
    default: Any = None,
) -> Any:
    value = body.get(name, default)
    if value is None:
        if required:
            raise RequestError(f"missing required field {name!r}")
        return None
    if kind is int and isinstance(value, bool):  # bool is an int subtype
        raise RequestError(f"field {name!r} must be {kind.__name__}")
    if not isinstance(value, kind):
        raise RequestError(f"field {name!r} must be {kind.__name__}")
    return value


def decode_body(raw: bytes) -> Dict[str, Any]:
    if not raw:
        return {}
    try:
        body = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise RequestError(f"request body is not JSON: {exc}")
    if not isinstance(body, dict):
        raise RequestError("request body must be a JSON object")
    return body


async def _submit(service: CompileService, task: ServeTask) -> Response:
    """The service's answer to ``task``; a 400 for a pipeline spec naming
    an unknown pass or a bad pass parameter, which has no task key."""
    try:
        task.key()
    except Exception as exc:
        raise RequestError(f"bad pipeline spec: {exc}")
    return await service.submit(task)


async def handle_compile(
    service: CompileService, body: Dict[str, Any]
) -> Response:
    """Inline-source compile: lint-gate and measure one point, in one task."""
    source = _field(body, "source", str, required=True)
    entry = _field(body, "entry", str)
    depth = _field(body, "depth", int)
    optimization = _field(body, "optimization", str, default="none") or "none"
    task = ServeTask("compile", source_sha(source), source, entry, None, depth, optimization)
    return await _submit(service, task)


async def handle_measure(
    service: CompileService, body: Dict[str, Any]
) -> Response:
    """Measure one point of a built-in, fuzz or compiled inline (``src:``)
    benchmark under the pipeline in ``optimization`` (a circuit-optimizer
    baseline is spelled ``preset+optimizer``).  Only the name's shape is
    checked here: the task resolves it."""
    if "optimizer" in body or "params" in body:
        raise RequestError(
            "fields 'optimizer' and 'params' are not accepted; name the "
            "baseline as a pipeline in 'optimization': "
            "preset+optimizer(params), e.g. \"none+peephole\" or "
            "\"spire+peephole(window=32)\""
        )
    name = _field(body, "name", str, required=True)
    depth = _field(body, "depth", int)
    optimization = _field(body, "optimization", str, default="none") or "none"
    lint_gate = body.get("lint", True)
    if not isinstance(lint_gate, bool):
        raise RequestError("field 'lint' must be bool")
    if name not in SOURCES and not is_fuzz_name(name) and not is_inline_name(name):
        raise RequestError(f"unknown benchmark {name!r}")
    task = ServeTask("measure", name, None, None, name, depth, optimization, lint_gate)
    return await _submit(service, task)


async def handle_lint(
    service: CompileService, body: Dict[str, Any]
) -> Response:
    """Lint as a service: the report, under the exit-code status map."""
    source = _field(body, "source", str, required=True)
    entry = _field(body, "entry", str)
    size = _field(body, "size", int)
    return await service.submit(ServeTask("lint", source_sha(source), source, entry, depth=size))


async def handle_cache_stats(
    service: CompileService, body: Dict[str, Any]
) -> Response:
    return 200, service.cache_stats()


async def handle_metrics(
    service: CompileService, body: Dict[str, Any]
) -> Response:
    return 200, service.metrics.snapshot()


async def handle_healthz(
    service: CompileService, body: Dict[str, Any]
) -> Response:
    return 200, {"ok": True}
