"""A small bounded LRU mapping shared by the package's memo tables.

Long-running processes (``repro serve``, fuzz sweeps) feed these memos
keys that rarely repeat, so every memo that is not keyed by a closed set
of values keeps a bound and evicts its least recently used entry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Hashable, Optional, TypeVar

V = TypeVar("V")


class BoundedCache:
    """LRU of at most ``maxsize`` entries; :meth:`get` builds on a miss.

    Safe to share between threads (``repro serve`` reads one from its
    event-loop thread and its executor thread).  A lock guards lookup,
    insert and evict; values are built outside it, so a build may itself
    use the cache.  Two threads that miss on the same key both build, and
    both get the value stored first: harmless, because every value kept
    here is a pure function of its key.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def lookup(self, key: Hashable) -> Optional[V]:
        """The value under ``key`` (now the most recently used), or None."""
        with self._lock:
            hit = self._data.get(key)
            if hit is not None:
                self._data.move_to_end(key)
            return hit

    def get(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value under ``key``, built by ``build()`` and stored on a miss
        (evicting the least recently used entry past the bound)."""
        hit = self.lookup(key)
        if hit is not None:
            return hit
        value = build()
        with self._lock:
            hit = self._data.get(key)
            if hit is not None:  # another thread stored it meanwhile
                self._data.move_to_end(key)
                return hit
            self._data[key] = value
            if len(self._data) > self.maxsize:
                self._data.popitem(last=False)
        return value

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)
