"""The shared cross-graph result store: the serving layer's one answer cache.

A :class:`~repro.service.scheduler.SolveService` answers every request
either from this store or by solving on a warm session.  The store is a
*service-wide* LRU keyed by ``(graph_fingerprint, canonical spec
signature)``, so it keeps serving deterministic answers after the session
cache evicts a warm engine, across sessions, and (for the process
executor) across worker processes, because it lives in the coordinating
service, not in any engine.  Under the thread executor a solved payload
is stored before the session lock is released, so a same-graph repeat
queued on that lock is answered from here.

Gating is the :func:`repro.api.session.memoizable` rule: only
deterministic requests — a non-``randomized`` solver, or a randomized one
with an explicit ``seed`` — are stored or served, so a stored answer is by
construction equal to a re-run.

Keys are full SHA-256 content fingerprints.  Unlike the session cache —
which verifies the cached graph object against the requested one on every
hit — no structural verification is possible here once the original graph
is gone; a SHA-256 content collision is the accepted (astronomically
unlikely) risk.  The scheduler additionally refuses to read or write the
store on a *detected* collision (a session-cache ``"bypass"`` while warm
sessions are configured), under either executor; with
``session_capacity=0`` every request is a by-design bypass with nothing to
detect against, and the store stays live — it is exactly the
configuration where answers would otherwise never be reused.
``capacity=0`` disables the store entirely.
"""

from __future__ import annotations

from typing import Hashable, Optional

from repro.obs.metrics import MetricsRegistry
from repro.utils.lru import PayloadCache

__all__ = ["ResultStore"]


class ResultStore(PayloadCache):
    """Thread-safe LRU of canonical result payloads (see module docstring).

    A :class:`~repro.utils.lru.PayloadCache` with locking on — the store is
    read and written concurrently by every coordination thread — plus the
    service-wide default capacity.  Keys are built by the scheduler as
    ``(graph_fingerprint, spec.signature())``.

    Hits, misses and occupancy are additionally mirrored into a
    :class:`~repro.obs.metrics.MetricsRegistry` (``store.*``) so a single
    metrics snapshot covers the store alongside the scheduler and session
    cache; the inherited integer counters stay authoritative for the
    historical :meth:`stats` shape.
    """

    def __init__(
        self, capacity: int = 256, registry: Optional[MetricsRegistry] = None
    ) -> None:
        super().__init__(capacity, thread_safe=True)
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._hit_counter = self.metrics.counter("store.hits")
        self._miss_counter = self.metrics.counter("store.misses")
        self._size_gauge = self.metrics.gauge("store.size")

    def get(self, key: Hashable) -> Optional[dict]:
        payload = super().get(key)
        if self.enabled:
            (self._hit_counter if payload is not None else self._miss_counter).inc()
        return payload

    def put(self, key: Hashable, payload: dict) -> None:
        super().put(key, payload)
        if self.enabled:
            self._size_gauge.set(len(self))
