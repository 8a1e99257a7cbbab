"""A bounded, thread-safe memo for values the broker derives per request.

The broker memoizes two pure functions of a request — the
schema-checked formula of a query text and the static route report of a
work unit.  Both want the same structure: a least-recently-used map
under one lock, computed outside the lock on a miss, with every hit,
miss and eviction reported to the metrics layer under the memo's cache
family.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, TypeVar

from repro.obs import observe_cache

V = TypeVar("V")

_MISSING = object()


class BoundedMemo(Generic[V]):
    """Least-recently-used memo of at most ``max_entries`` values.

    :meth:`get_or_compute` runs ``compute`` outside the lock, so a slow
    computation never blocks other lookups; two threads missing on the
    same key may both compute it, and the later result wins.  A
    ``compute`` that raises stores nothing: only successes are
    memoized.
    """

    def __init__(self, family: str, max_entries: int = 1024) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        #: Cache family label for :func:`~repro.obs.observe_cache`.
        self.family = family
        self.max_entries = max_entries
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()  # guarded-by: _lock
        self._lock = threading.Lock()
        self.hits = 0  # guarded-by: _lock
        self.misses = 0  # guarded-by: _lock

    def get_or_compute(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The memoized value for ``key``, computing it on a miss."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is not _MISSING:
                self._entries.move_to_end(key)
                self.hits += 1
                observe_cache(self.family, "hit")
                return value
            self.misses += 1
            observe_cache(self.family, "miss")
        value = compute()
        with self._lock:
            if key not in self._entries and len(self._entries) >= self.max_entries:
                self._entries.popitem(last=False)
                observe_cache(self.family, "eviction")
            self._entries[key] = value
        return value

    def stats(self) -> Dict[str, int]:
        """``{entries, hits, misses}`` as one consistent snapshot."""
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }
