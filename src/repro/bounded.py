"""A small bounded LRU mapping shared by the package's memo tables.

Long-running processes (``repro serve``, fuzz sweeps) feed these memos
keys that rarely repeat, so every memo that is not keyed by a closed set
of values keeps a bound and evicts its least recently used entry.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Hashable, TypeVar

V = TypeVar("V")


class BoundedCache:
    """LRU of at most ``maxsize`` entries; :meth:`get` builds on a miss."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict = OrderedDict()

    def get(self, key: Hashable, build: Callable[[], V]) -> V:
        """The value under ``key``, built by ``build()`` and stored on a miss
        (evicting the least recently used entry past the bound)."""
        hit = self._data.get(key)
        if hit is not None:
            self._data.move_to_end(key)
            return hit
        value = build()
        self._data[key] = value
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
        return value

    def __len__(self) -> int:
        return len(self._data)
