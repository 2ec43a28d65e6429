"""Single-flight request coalescing.

Identical concurrent requests — the same request key, therefore the
same source digest or benchmark name, entry, depth, pipeline, config
and lint flag — share one in-flight computation and one result.  The first arrival
becomes the *leader* and owns the future; every later arrival while the
future is open is a *follower* that just awaits it.  The compile runs
exactly once per distinct key no matter how many clients ask at once,
which is the concurrency contract ``repro loadgen`` asserts end to end.
"""

from __future__ import annotations

import asyncio
from typing import Any, Dict, Hashable, Tuple


class SingleFlight:
    """Fingerprint-keyed shared futures (single event loop, no locks)."""

    def __init__(self) -> None:
        self._inflight: Dict[Hashable, asyncio.Future] = {}
        #: followers coalesced onto an open future (the dedupe metric)
        self.coalesced = 0
        #: leaders admitted (distinct in-flight computations started)
        self.started = 0

    def admit(self, key: Hashable) -> Tuple[bool, asyncio.Future]:
        """Join the in-flight computation of ``key``.

        Returns ``(leader, future)``: the leader must eventually resolve
        the future via :meth:`resolve` / :meth:`reject`; followers only
        await it.
        """
        future = self._inflight.get(key)
        if future is not None and not future.done():
            self.coalesced += 1
            return False, future
        future = asyncio.get_running_loop().create_future()
        self._inflight[key] = future
        self.started += 1
        return True, future

    def resolve(self, key: Hashable, result: Any) -> None:
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_result(result)

    def reject(self, key: Hashable, exc: BaseException) -> None:
        future = self._inflight.pop(key, None)
        if future is not None and not future.done():
            future.set_exception(exc)

    def __len__(self) -> int:
        return sum(1 for f in self._inflight.values() if not f.done())
