"""Compilation-as-a-service: ``repro serve`` and its load generator.

A long-running asyncio HTTP/JSON server over the existing benchsuite
machinery (ROADMAP item 1).  The package splits along the service's
layers:

* :mod:`~repro.serve.http` — stdlib HTTP/1.1 framing (server loop and
  persistent-connection client; no third-party HTTP stack);
* :mod:`~repro.serve.dedupe` — single-flight coalescing of identical
  concurrent requests;
* :mod:`~repro.serve.metrics` — per-endpoint counters, gauges and
  latency quantiles behind ``GET /metrics``;
* :mod:`~repro.serve.service` — admission lint, micro-batching onto the
  execution backend, durability through the shared artifact cache,
  which is bounded;
* :mod:`~repro.serve.handlers` — the endpoint logic and its
  lint-exit-code → HTTP-status contract;
* :mod:`~repro.serve.app` — routing, lifecycle and signals;
* :mod:`~repro.serve.loadgen` — deterministic mixed-traffic replay that
  asserts the service contract end to end (``repro loadgen``).
"""

from .app import ReproServer, run_server, serve_main
from .dedupe import SingleFlight
from .http import Client
from .loadgen import build_traffic, run_loadgen
from .metrics import Metrics
from .service import CompileService, inline_name

__all__ = [
    "Client",
    "CompileService",
    "Metrics",
    "ReproServer",
    "SingleFlight",
    "build_traffic",
    "inline_name",
    "run_loadgen",
    "run_server",
    "serve_main",
]
