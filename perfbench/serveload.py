"""The ``repro serve`` workloads: a real server process under closed-loop load.

The server is the command-line ``repro serve`` (started through
``traced_serve.py`` in traced runs) with a fresh artifact cache and the
``--jobs`` of :data:`JOBS`.  The load comes from :data:`CLIENTS` clients
in this process, each on one keep-alive connection that it opens once,
each sending its next request as soon as the previous answer arrives (a
closed loop: a slower server gets less load).  The client speaks just
enough HTTP/1.1 itself so that the measured path does not include the
package's own client.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import signal
import socket
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import calibrate
import spans
import workloads

HERE = Path(__file__).resolve().parent
HOST = "127.0.0.1"
CLIENTS = 8
#: ``repro serve --jobs`` of each workload.  1, the default, compiles each
#: batch in the server's executor thread; 2 (one worker per CPU of the
#: 2-CPU machines the benchmark targets) forks a process pool per batch.
JOBS = {"serve-cold": 1, "serve-pool": 2, "serve-warm": 1}
#: seconds of each load window; calibration samples are taken in the
#: pauses between windows, so shorter windows follow the host's speed
#: more closely, but a window must stay long against one request, or
#: the pauses would set the pace of the batches
WINDOW_S = {"serve-cold": 0.5, "serve-pool": 0.5, "serve-warm": 0.1}
PAUSE_SAMPLES = 3

Request = Tuple[workloads.Point, str, Dict[str, Any]]


class Connection:
    """One keep-alive HTTP/1.1 connection carrying JSON bodies."""

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self.reader = reader
        self.writer = writer

    @classmethod
    async def open(cls, port: int) -> "Connection":
        return cls(*await asyncio.open_connection(HOST, port))

    async def request(self, method: str, path: str, payload: Any = None) -> Tuple[int, Any]:
        body = b"" if payload is None else json.dumps(payload).encode("utf-8")
        self.writer.write(
            f"{method} {path} HTTP/1.1\r\nHost: {HOST}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n".encode("latin-1")
            + body
        )
        await self.writer.drain()
        head = (await self.reader.readuntil(b"\r\n\r\n")).decode("latin-1").split("\r\n")
        length = 0
        for line in head[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        data = await self.reader.readexactly(length) if length else b""
        return int(head[0].split(" ")[1]), json.loads(data) if data else None

    async def close(self) -> None:
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except OSError:
            pass


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind((HOST, 0))
        return sock.getsockname()[1]


class Server:
    """One ``repro serve`` process with its own cache directory."""

    def __init__(self, work: Path, root: Path, env: Dict[str, str], jobs: int, trace: bool) -> None:
        work.mkdir(parents=True)
        self.port = free_port()
        self.spans_dir: Optional[Path] = None
        launcher = ["-m", "repro"]
        if trace:
            self.spans_dir = work / "spans"
            self.spans_dir.mkdir()
            launcher = [str(HERE / "traced_serve.py"), str(self.spans_dir)]
        config = [f"--{key.replace('_', '-')}={value}" for key, value in workloads.CONFIG.items()]
        command = [
            sys.executable, *launcher, "serve", "--host", HOST, "--port", str(self.port),
            "--jobs", str(jobs), "--cache-dir", str(work / "cache"), *config,
        ]
        self.log = open(work / "server.log", "wb")
        # its own session, so a server that will not stop goes down with its pool
        self.proc = subprocess.Popen(
            command, cwd=root, env=env, stdout=self.log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )

    async def call(self, method: str, path: str, payload: Any = None) -> Tuple[int, Any]:
        conn = await Connection.open(self.port)
        try:
            return await conn.request(method, path, payload)
        finally:
            await conn.close()

    async def ready(self, timeout: float = 120.0) -> None:
        deadline = time.perf_counter() + timeout
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with {self.proc.returncode}")
            try:
                if (await self.call("GET", "/healthz"))[0] == 200:
                    return
            except OSError:
                pass
            if time.perf_counter() > deadline:
                raise TimeoutError("repro serve did not answer /healthz")
            await asyncio.sleep(0.01)

    async def reset_spans(self, timeout: float = 30.0) -> None:
        """Drop the set-up's spans: the server's and its pool workers'."""
        assert self.spans_dir is not None
        for path in self.spans_dir.iterdir():
            path.unlink()
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.perf_counter() + timeout
        while not (self.spans_dir / "reset").exists():
            if time.perf_counter() > deadline:
                raise TimeoutError("repro serve did not reset its spans")
            await asyncio.sleep(0.005)

    async def stop(self, timeout: float = 60.0) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    await self.call("POST", "/shutdown", {})
                except OSError:
                    pass
                deadline = time.perf_counter() + timeout
                while self.proc.poll() is None and time.perf_counter() < deadline:
                    await asyncio.sleep(0.01)
        finally:
            if self.proc.poll() is None:
                os.killpg(self.proc.pid, signal.SIGKILL)
                self.proc.wait()
            self.log.close()


def requests(workload: str, programs: Dict[str, Any], seed: str, deadline: Optional[float]) -> Iterator[Request]:
    """The request stream: whole shuffled rounds of the workload's points.

    ``serve-warm`` names the points the set-up round already computed.
    The other workloads send each program as inline source with a
    comment naming the request, so no two requests share a cache key.
    """
    points = workloads.POINTS[workload]
    for index, point in enumerate(workloads.schedule(points, seed, deadline)):
        name, depth, pipeline = point
        if workload == "serve-warm":
            yield point, "/measure", {"name": name, "depth": depth, "optimization": pipeline}
        else:
            program = programs[name]
            yield point, "/compile", {
                "source": f"{program['source']}\n// request {seed} #{index}\n",
                "entry": program["entry"],
                "depth": depth,
                "optimization": pipeline,
            }


class Tally:
    """(point key, start, seconds) of each answered request, and the bad outcomes."""

    def __init__(self) -> None:
        self.timed: List[Tuple[str, float, float]] = []
        self.failed = 0
        self.wrong = 0


async def open_clients(port: int) -> List[Connection]:
    """The :data:`CLIENTS` connections of one server, open for all its load."""
    return list(await asyncio.gather(*(Connection.open(port) for _ in range(CLIENTS))))


async def drive(
    conns: List[Connection],
    stream: Iterator[Request],
    expected: Dict[str, Any],
    tally: Tally,
    until: Optional[float] = None,
) -> bool:
    """Send ``stream`` from one closed-loop client per connection.

    Clients stop taking requests at ``until`` and finish the ones in
    flight.  Returns whether ``stream`` ran out.
    """
    exhausted = False

    async def client(conn: Connection) -> None:
        nonlocal exhausted
        while until is None or time.perf_counter() < until:
            request = next(stream, None)
            if request is None:
                exhausted = True
                return
            point, path, payload = request
            start = time.perf_counter()
            status, body = await conn.request("POST", path, payload)
            seconds = time.perf_counter() - start
            row = body.get("row") if isinstance(body, dict) else None
            if status != 200 or not isinstance(row, dict):
                tally.failed += 1
            else:
                tally.timed.append((workloads.key(point), start, seconds))
                tally.wrong += not workloads.matches(row, expected[workloads.key(point)])

    await asyncio.gather(*(client(conn) for conn in conns))
    return exhausted


async def measure(
    conns: List[Connection],
    stream: Iterator[Request],
    expected: Dict[str, Any],
    sample: Callable[[], float],
    window: float,
) -> Dict[str, Any]:
    """Drive ``stream`` in windows of ``window`` seconds, calibrating in between.

    Calibration samples (``calibrate.py``) are taken while the server is
    idle, so they see the host's speed and not this benchmark's own load.
    Each pause takes the median of :data:`PAUSE_SAMPLES`: a pool that
    ``--jobs 2`` tears down after its batch may still be exiting.
    """

    def pause_sample() -> float:
        return statistics.median(sample() for _ in range(PAUSE_SAMPLES))

    samples = [pause_sample()]
    tally = Tally()
    starts: List[float] = []
    scales: List[float] = []
    elapsed = 0.0
    exhausted = False
    while not exhausted:
        start = time.perf_counter()
        exhausted = await drive(conns, stream, expected, tally, until=start + window)
        duration = time.perf_counter() - start
        samples.append(pause_sample())
        starts.append(start)
        scales.append(calibrate.REFERENCE_S / statistics.fmean(samples[-2:]))
        elapsed += duration * scales[-1]
    latencies = [
        (key, seconds * scales[bisect.bisect_right(starts, start) - 1])
        for key, start, seconds in tally.timed
    ]
    return {
        "latencies": latencies,
        "elapsed": elapsed,
        "failed": tally.failed,
        "wrong": tally.wrong,
        "scale": calibrate.REFERENCE_S / statistics.median(samples),
    }


async def run(args: Any, root: Path, env: Dict[str, str], work: Path, setups: int) -> Dict[str, Any]:
    """Set up ``setups`` servers in turn, timing each; measure the last."""
    data = workloads.load_expected()
    expected, programs = data["rows"], data["programs"]
    timer = calibrate.SetupTimer()
    for index in range(setups):
        timer.start()
        server = Server(work / f"setup{index}", root, env, JOBS[args.workload], bool(args.trace))
        conns: List[Connection] = []
        try:
            await server.ready()
            conns = await open_clients(server.port)
            # one round: lazy start-up finishes, serve-warm's rows are computed
            warm_up = requests(args.workload, programs, f"warm-up {index}", None)
            await drive(conns, warm_up, expected, Tally())
            timer.stop()
            if index < setups - 1:
                continue
            if server.spans_dir is not None:
                await server.reset_spans()
            sample = calibrate.sample_cpus
            if args.workload == "serve-warm":
                # answered from memory, the service is its event loop: it
                # and the clients share one CPU, the CPU calibration samples
                calibrate.pin_to_one_cpu()
                os.sched_setaffinity(server.proc.pid, os.sched_getaffinity(0))
                sample = calibrate.sample
            before = (await server.call("GET", "/metrics"))[1]["counters"].get("batches", 0)
            stream = requests(args.workload, programs, str(args.seed), time.perf_counter() + args.seconds)
            result = await measure(conns, stream, expected, sample, WINDOW_S[args.workload])
            after = (await server.call("GET", "/metrics"))[1]["counters"].get("batches", 0)
            result["batches"] = after - before
        finally:
            for conn in conns:
                await conn.close()
            await server.stop()
    if server.spans_dir is not None:
        result["spans"] = spans.load_totals(server.spans_dir)
    result["setups"] = timer.durations
    return result
