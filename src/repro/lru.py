"""A small thread-safe, weight-bounded LRU mapping.

The engine's solve cache and the generator's chain-template cache both
keep their entries in one of these.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Callable, Hashable, Optional, Tuple


def _unit_weight(value: object) -> int:
    return 1


class LRU:
    """A small thread-safe LRU mapping (key -> object).

    Entries are evicted, least recently used first, until their total
    ``weigh(value)`` is within ``capacity`` — but the entry just
    inserted is always kept, even when it alone exceeds the budget.
    """

    def __init__(
        self,
        capacity: int,
        weigh: Callable[[object], int] = _unit_weight,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._weigh = weigh
        self._lock = Lock()
        self._entries: "OrderedDict[Hashable, Tuple[object, int]]" = OrderedDict()
        self._weight = 0

    def get(self, key: Hashable) -> Optional[object]:
        with self._lock:
            try:
                entry = self._entries.pop(key)
            except KeyError:
                return None
            self._entries[key] = entry  # re-insert as most recent
            return entry[0]

    def put(self, key: Hashable, value: object) -> None:
        weight = self._weigh(value)
        with self._lock:
            self._discard(key)
            self._entries[key] = (value, weight)
            self._weight += weight
            while self._weight > self.capacity and len(self._entries) > 1:
                _key, (_value, evicted) = self._entries.popitem(last=False)
                self._weight -= evicted

    def pop(self, key: Hashable) -> None:
        with self._lock:
            self._discard(key)

    def pop_where(self, predicate: Callable[[Hashable], bool]) -> None:
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            for key in [key for key in self._entries if predicate(key)]:
                self._discard(key)

    def _discard(self, key: Hashable) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self._weight -= entry[1]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._weight = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def weight(self) -> int:
        with self._lock:
            return self._weight
