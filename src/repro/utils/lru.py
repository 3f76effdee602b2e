"""A bounded LRU of deep-copied payloads — the one memo primitive.

Two answer caches share identical semantics: the serving layer's
cross-graph result store (:class:`repro.service.result_store.ResultStore`)
and the Python-API session memo (:class:`repro.api.session.Session`).
Both hold *payload dicts* that consumers may mutate, so entries are
deep-copied on the way in **and** on the way out (the cache must keep
serving the pristine original), evict least-recently-used beyond a
capacity, and count hits/misses.  This class is that behaviour, defined
once; the two differ only in locking (pass ``thread_safe=True``) and in
how they build keys.
"""

from __future__ import annotations

import copy
import threading
from collections import OrderedDict
from contextlib import nullcontext
from typing import ContextManager, Dict, Hashable, Optional

__all__ = ["DEFAULT_MEMO_LIMIT", "PayloadCache"]

#: Default entry bound for a :class:`repro.api.session.Session` memo (a
#: memo is a convenience, not a cache layer to tune).
DEFAULT_MEMO_LIMIT = 128


class PayloadCache:
    """Capacity-bounded LRU of deep-copied dict payloads.

    ``capacity=0`` disables the cache entirely: :meth:`get` always misses
    without counting, :meth:`put` is a no-op (:attr:`enabled` is false).
    """

    def __init__(self, capacity: int, thread_safe: bool = False) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._payloads: "OrderedDict[Hashable, dict]" = OrderedDict()
        self._lock: ContextManager = threading.Lock() if thread_safe else nullcontext()
        self.hits = 0
        self.misses = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def get(self, key: Hashable) -> Optional[dict]:
        """The payload stored under ``key`` (a deep copy), or ``None``."""
        if not self.enabled:
            return None
        with self._lock:
            payload = self._payloads.get(key)
            if payload is None:
                self.misses += 1
                return None
            self._payloads.move_to_end(key)
            self.hits += 1
            # Hand out a copy: consumers may mutate their payload, and the
            # cache must keep serving the pristine original.
            return copy.deepcopy(payload)

    def put(self, key: Hashable, payload: dict) -> None:
        if not self.enabled:
            return
        with self._lock:
            self._payloads[key] = copy.deepcopy(payload)
            self._payloads.move_to_end(key)
            while len(self._payloads) > self.capacity:
                self._payloads.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._payloads)

    def stats(self) -> Dict[str, int]:
        """A snapshot of the hit/miss counters and occupancy."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "size": len(self._payloads),
                "capacity": self.capacity,
            }
