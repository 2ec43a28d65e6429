"""The bounded LRU behind the package's memo tables (``repro.bounded``)."""

from __future__ import annotations

import sys
import threading
from typing import List

from repro.bounded import BoundedCache


def test_least_recently_used_entry_is_evicted():
    cache = BoundedCache(2)
    assert cache.get("a", lambda: 1) == 1
    assert cache.get("b", lambda: 2) == 2
    assert cache.lookup("a") == 1  # now the most recently used
    assert cache.get("c", lambda: 3) == 3  # evicts "b"
    assert cache.lookup("b") is None
    assert len(cache) == 2
    assert cache.get("a", lambda: -1) == 1  # still a hit


def test_a_build_may_use_the_cache():
    cache = BoundedCache(4)
    value = cache.get("outer", lambda: cache.get("inner", lambda: 1) + 1)
    assert value == 2 and len(cache) == 2


class _Key:
    """A key whose hash and equality run Python code, so a thread switch
    can land inside every dictionary operation on it."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __hash__(self) -> int:
        return hash(self.value)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Key) and other.value == self.value


def test_threads_share_one_cache_within_its_bound():
    """8 threads on overlapping keys, switching as often as the interpreter
    allows: no error, the bound holds, and every read is its key's value."""
    bound = 16
    cache = BoundedCache(bound)
    errors: List[BaseException] = []
    start = threading.Barrier(8)

    def work(seed: int) -> None:
        try:
            start.wait(timeout=60)
            for step in range(4000):
                number = (seed * 7 + step) % 40
                key = _Key(number)
                hit = cache.lookup(key)
                assert hit is None or hit == ("value", number)
                assert cache.get(key, lambda: ("value", number)) == ("value", number)
                assert len(cache) <= bound
        except Exception as exc:  # re-raised in the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors, errors[0]
    assert len(cache) <= bound


def test_racing_builds_agree_on_one_value():
    """Threads that miss on one key together all get the value stored first."""
    cache = BoundedCache(4)
    start = threading.Barrier(8)
    seen: List[object] = []

    def work() -> None:
        start.wait(timeout=60)
        seen.append(cache.get("key", object))

    threads = [threading.Thread(target=work) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert len(seen) == 8
    assert all(value is seen[0] for value in seen)
    assert cache.lookup("key") is seen[0]
