"""Per-endpoint service metrics: counters, gauges, latency quantiles.

Latencies are kept in bounded rings (most recent ``RING_SIZE`` samples
per endpoint) and quantiles are computed on snapshot — the traffic rates
this service sees make exact-over-window far simpler and plenty cheap
compared to a streaming sketch.  Everything is loop-thread-only except
:meth:`Metrics.observe`, which tolerates being called from the executor
thread (appends to a deque and integer adds are atomic under the GIL).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Dict, List, Optional

RING_SIZE = 2048


def quantile(samples: List[float], q: float) -> Optional[float]:
    """The q-quantile (nearest-rank) of a sample list; None when empty."""
    if not samples:
        return None
    ordered = sorted(samples)
    rank = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[rank]


class EndpointStats:
    """One endpoint's request counters and latency ring."""

    def __init__(self) -> None:
        self.requests = 0
        self.errors = 0  # responses with status >= 400
        self.latencies: deque = deque(maxlen=RING_SIZE)

    def observe(self, seconds: float, status: int) -> None:
        self.requests += 1
        if status >= 400:
            self.errors += 1
        self.latencies.append(seconds)

    def snapshot(self) -> Dict[str, Any]:
        samples = list(self.latencies)
        return {
            "requests": self.requests,
            "errors": self.errors,
            "p50_seconds": quantile(samples, 0.50),
            "p99_seconds": quantile(samples, 0.99),
            "max_seconds": max(samples) if samples else None,
        }


class Metrics:
    """The service's metrics registry (rendered by ``GET /metrics``)."""

    def __init__(self) -> None:
        self._endpoints: Dict[str, EndpointStats] = {}
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, Callable[[], Any]] = {}

    def endpoint(self, name: str) -> EndpointStats:
        if name not in self._endpoints:
            self._endpoints[name] = EndpointStats()
        return self._endpoints[name]

    def observe(self, name: str, seconds: float, status: int) -> None:
        self.endpoint(name).observe(seconds, status)

    def count(self, name: str, delta: int = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + delta

    def gauge(self, name: str, read: Callable[[], Any]) -> None:
        """Register a live-value gauge (sampled at snapshot time)."""
        self._gauges[name] = read

    def snapshot(self) -> Dict[str, Any]:
        gauges: Dict[str, Any] = {}
        for name, read in self._gauges.items():
            try:
                gauges[name] = read()
            except Exception:  # a broken gauge must not break /metrics
                gauges[name] = None
        return {
            "endpoints": {
                name: stats.snapshot()
                for name, stats in sorted(self._endpoints.items())
            },
            "counters": dict(sorted(self._counters.items())),
            "gauges": gauges,
        }
