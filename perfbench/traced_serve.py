"""Run ``repro serve`` with the benchmark's layer spans installed.

    python3 perfbench/traced_serve.py SPANS_DIR serve [options of repro serve]

Traced runs of the serve workloads start the server through this file.
SIGUSR1 drops the totals recorded so far (the set-up round's) and
acknowledges by creating ``SPANS_DIR/reset``.  At exit the server writes
its totals and peak RSS to ``SPANS_DIR``, beside the files its forked
pool workers flushed after each task.
"""

from __future__ import annotations

import resource
import signal
import sys
from pathlib import Path

import spans
from repro import cli


def main() -> int:
    spans_dir = Path(sys.argv[1])
    uninstall = spans.install(flush_dir=spans_dir)

    def reset(signum, frame) -> None:
        spans.RECORDER.reset()
        (spans_dir / "reset").touch()

    signal.signal(signal.SIGUSR1, reset)
    try:
        return cli.main(sys.argv[2:])
    finally:
        spans.RECORDER.add("peak_rss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        uninstall()


if __name__ == "__main__":
    sys.exit(main())
