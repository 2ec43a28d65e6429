"""Host-speed calibration: a fixed pure-Python workload timed beside the runs.

On shared 2-CPU cloud VMs each CPU flips between two speeds about 1.8x
apart, independently and within seconds (neighbours sharing the
physical cores), and the compiler's allocation-heavy Python follows
those flips more closely than plain arithmetic does.  :func:`sample`
times a fixed workload of that kind -- a JSON round trip and an
object-graph walk with dict churn -- that runs no code of the package
under test.  Every reported time is multiplied by
``REFERENCE_S / calibration``: it reads as the time on a machine where
one sample takes :data:`REFERENCE_S`, the fast speed of such a VM.
"""

from __future__ import annotations

import bisect
import gc
import json
import os
import random
import statistics
import time
from typing import List, Tuple

#: one sample's duration at the reference speed
REFERENCE_S = 0.0024

_rng = random.Random(0)
_RECORDS = [
    {"key": _rng.random(), "name": f"n{i}", "value": [i, i + 1, [i, "x"]]}
    for i in range(1500)
]
_BLOB = json.dumps(_RECORDS)


class _Node:
    __slots__ = ("kind", "args", "next")

    def __init__(self, kind: int, args: Tuple[int, int], next_: "_Node | None") -> None:
        self.kind = kind
        self.args = args
        self.next = next_


def _workload() -> int:
    records = json.loads(_BLOB)
    head = None
    for i, record in enumerate(records):
        head = _Node(i % 7, (i, len(record["name"])), head)
    totals: dict = {}
    while head is not None:
        key = ("op", head.kind)
        totals[key] = totals.get(key, 0) + head.args[0] - head.args[1]
        head = head.next
    return len(totals)


def sample() -> float:
    """Seconds one run of the calibration workload takes now, on this CPU.

    The cyclic collector is off while it runs: a collection the sample's
    allocations set off would walk the whole heap of the process, so in a
    process that holds the package under test the sample would time that
    heap too.  Everything the sample allocates is freed by reference
    counting before the collector is back on.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _workload()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def sample_cpus() -> float:
    """Seconds one run takes at the mean speed of the CPUs this process may use.

    For work spread over several processes; each CPU is sampled in turn.
    """
    cpus = sorted(os.sched_getaffinity(0))
    try:
        speeds = []
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            speeds.append(1.0 / sample())
    finally:
        os.sched_setaffinity(0, cpus)
    return 1.0 / statistics.fmean(speeds)


def pin_to_one_cpu() -> None:
    """Keep this process, and so its calibration samples, on one CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Calibration:
    """Calibration samples of one run, keyed by ``time.perf_counter()``."""

    def __init__(self) -> None:
        self.times: List[float] = []
        self.seconds: List[float] = []

    def add(self, seconds: float) -> None:
        self.times.append(time.perf_counter())
        self.seconds.append(seconds)

    def scale(self, start: float, end: float, margin: float) -> float:
        """``REFERENCE_S`` over the median sample from ``start - margin`` to ``end + margin``."""
        lo = bisect.bisect_left(self.times, start - margin)
        hi = bisect.bisect_right(self.times, end + margin)
        if lo == hi:  # no sample that close: use the nearest one
            nearest = min(range(len(self.times)), key=lambda i: abs(self.times[i] - start))
            lo, hi = nearest, nearest + 1
        return REFERENCE_S / statistics.median(self.seconds[lo:hi])

    def overall(self) -> float:
        """``REFERENCE_S`` over the median of every sample."""
        return REFERENCE_S / statistics.median(self.seconds)


class SetupTimer:
    """Scaled set-up durations, calibrated just before and just after each."""

    SAMPLES = 3

    def __init__(self) -> None:
        self.durations: List[float] = []
        self._before: List[float] = []
        self._start = 0.0

    def start(self) -> None:
        self._before = [sample_cpus() for _ in range(self.SAMPLES)]
        self._start = time.perf_counter()

    def stop(self) -> None:
        """Call once the set-up is done and its processes are idle."""
        elapsed = time.perf_counter() - self._start
        samples = self._before + [sample_cpus() for _ in range(self.SAMPLES)]
        self.durations.append(elapsed * REFERENCE_S / statistics.median(samples))
