"""Endpoint logic of ``repro serve``.

Every handler takes the shared :class:`~repro.serve.service.CompileService`
plus the decoded JSON request body and returns ``(status, payload)``.
The status discipline mirrors the linter's exit-code contract
(``repro lint``: 0 clean / 1 error findings / 2 usage / 3 internal):

========  ==========================================================
status    meaning
========  ==========================================================
200       clean (warnings, if any, ride along in the payload)
422       the *program* is at fault — admission lint found errors
400       the *request* is at fault — missing/ill-typed fields (a
          sized entry without ``depth`` included), unknown
          benchmark, bad pipeline spec (exit 2's analog)
500       the *service* is at fault — handler defect or a failure
          row out of the execution backend (exit 3's analog)
========  ==========================================================
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Tuple

from ..benchsuite.parallel import MEASURE, OPTIMIZE, GridTask
from ..benchsuite.programs import is_unsized
from ..circopt.base import optimizer_names
from ..errors import ReproError
from ..passes import canonical_pipeline
from .service import CompileService

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


def _lint_payload(report, **extra: Any) -> Dict[str, Any]:
    payload = json.loads(report.render_json())
    payload.update(extra)
    return payload


def _validate_pipeline(
    optimization: str,
    optimizer: Optional[str] = None,
    params: Optional[Dict[str, Any]] = None,
) -> None:
    try:
        canonical_pipeline(optimization, optimizer, params)
    except Exception as exc:
        raise RequestError(f"bad pipeline spec: {exc}")


def _admit(
    service: CompileService,
    source: str,
    entry: Optional[str],
    size: Optional[int],
) -> Tuple[Optional[Response], Any]:
    """Admission lint; (reject-response, report). 422 carries findings."""
    report = service.lint(source, entry=entry, size=size)
    if report.errors:
        service.metrics.count("admission_rejects")
        return (422, _lint_payload(report, admitted=False)), report
    return None, report


def _missing_depth(entry: str) -> RequestError:
    """A sized entry cannot compile without a recursion bound: the request
    is rejected before it reaches the batch thread."""
    return RequestError(f"missing required field 'depth': {entry!r} takes a recursion bound")


def _entry_takes_size(service: CompileService, source: str, entry: str) -> bool:
    """Whether ``entry`` declares a recursion bound (False when the source
    does not parse or lacks it; the compile reports those itself).  The
    parse is the runner's, shared with the lint and the compile."""
    try:
        program = service.runner.frontend.program(source)
        return program.fun(entry).size_param is not None
    except (ReproError, KeyError):
        return False


async def _run_task(
    service: CompileService, task: GridTask, extra: Dict[str, Any]
) -> Response:
    row = await service.submit(task)
    if row.get("failed"):
        return 500, {"row": row, **extra}
    return 200, {"row": row, **extra}


async def handle_compile(
    service: CompileService, body: Dict[str, Any]
) -> Response:
    """Inline-source compile: lint-gate, register, measure one point."""
    source = _field(body, "source", str, required=True)
    entry = _field(body, "entry", str)
    depth = _field(body, "depth", int)
    optimization = _field(body, "optimization", str, default="none") or "none"
    _validate_pipeline(optimization)
    reject, report = _admit(service, source, entry, depth)
    if reject is not None:
        return reject
    resolved = entry or report.entry
    if resolved is None:
        raise RequestError("program defines no functions (nothing to compile)")
    if depth is None and report.size is not None:
        raise _missing_depth(resolved)
    name = service.register_inline(source, resolved)
    task = GridTask(MEASURE, name, depth, optimization)
    return await _run_task(
        service,
        task,
        {"name": name, "entry": resolved, "warnings": len(report.diagnostics)},
    )


async def handle_measure(
    service: CompileService, body: Dict[str, Any]
) -> Response:
    """Measure/optimize one point of a registered (or fuzz) benchmark."""
    name = _field(body, "name", str, required=True)
    depth = _field(body, "depth", int)
    optimization = _field(body, "optimization", str, default="none") or "none"
    optimizer = _field(body, "optimizer", str)
    params = _field(body, "params", dict) or {}
    lint_gate = body.get("lint", True)
    if not isinstance(lint_gate, bool):
        raise RequestError("field 'lint' must be bool")
    if optimizer is not None and optimizer not in optimizer_names():
        raise RequestError(
            f"unknown optimizer {optimizer!r}; "
            f"available: {optimizer_names()}"
        )
    _validate_pipeline(optimization, optimizer, params)
    known = service.known_source(name)
    if known is None:
        raise RequestError(f"unknown benchmark {name!r}")
    source, entry = known
    if is_unsized(name):
        depth = None
    elif depth is None and _entry_takes_size(service, source, entry):
        raise _missing_depth(entry)
    if lint_gate:
        reject, _report = _admit(service, source, entry, depth)
        if reject is not None:
            return reject
    if optimizer is None:
        task = GridTask(MEASURE, name, depth, optimization)
    else:
        task = GridTask(
            OPTIMIZE,
            name,
            depth,
            optimization,
            optimizer,
            tuple(sorted(params.items())),
        )
    return await _run_task(service, task, {"name": name})


async def handle_lint(
    service: CompileService, body: Dict[str, Any]
) -> Response:
    """Lint as a service: the report, under the exit-code status map."""
    source = _field(body, "source", str, required=True)
    entry = _field(body, "entry", str)
    size = _field(body, "size", int)
    report = service.lint(source, entry=entry, size=size)
    status = 422 if report.exit_code() else 200
    return status, _lint_payload(report, exit_code=report.exit_code())


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
