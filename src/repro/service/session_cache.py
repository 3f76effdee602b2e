"""The engine-session cache: warm :class:`SolverEngine`\\ s keyed by graph.

Building a session is the expensive part of serving a solve request: the
frozen :class:`~repro.graph.index.GraphIndex` (triangle enumeration), the
anchor-free baseline decomposition and — for tree-using solvers — the
component tree all have to exist before round one.  The cache keeps the
most-recently-used sessions alive so repeated requests against the same
graph skip straight to the solve; this amortises exactly the cold-index
cost the kernel benchmarks flag (``BENCH_kernel.json`` ``decomposition``
``cold`` rows).

Keys and collisions
-------------------
A session key is the graph fingerprint — see
:func:`~repro.datasets.graph_fingerprint`; every session runs a default
:class:`SolverEngine`.  Fingerprints are content hashes, so a collision (two different graphs, one key) is astronomically
unlikely but *checked anyway*: every hit verifies the cached graph against
the requested one (an ``is`` check in the common case — dataset loaders
memoise their graphs — and a structural comparison otherwise).  A mismatch
is served through a fresh uncached session (``"bypass"``), never through
the colliding one, so a collision can cost warmth but never correctness.

Concurrency
-----------
The cache itself is guarded by one lock held only for dictionary
operations (graph/engine construction happens outside it).  Each session
carries its own lock; :meth:`EngineSessionCache.serve` holds it for the
duration of a solve, so concurrent requests against the same graph
serialise on the session while requests against different graphs proceed
in parallel.  Eviction simply drops the cache's reference — an in-flight
solve keeps its session alive until it finishes.

Serving
-------
:meth:`EngineSessionCache.serve` is the serving layer's one solve step:
:class:`~repro.service.scheduler.SolveService` runs it on a pool thread
(thread executor) or a process worker runs it on its own cache (process
executor).  Sessions hold no answers: repeats are answered by the
service's :class:`~repro.service.result_store.ResultStore`, which the
thread path reads and fills through ``serve``'s ``lookup``/``keep`` hooks
under the session lock.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Hashable, NamedTuple, Optional, Tuple

from repro.api.spec import SolveSpec, result_to_json
from repro.core.engine import SolverEngine
from repro.graph.graph import Graph
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import span

__all__ = ["EngineSession", "EngineSessionCache", "Served"]


class EngineSession:
    """One warm engine bound to one graph, plus the lock serialising it."""

    def __init__(self, key: Hashable, graph: Graph, engine: SolverEngine) -> None:
        self.key = key
        self.graph = graph
        self.engine = engine
        #: Serialises solves on this session (the engine is not thread-safe).
        self.lock = threading.Lock()


class Served(NamedTuple):
    """One answer from :meth:`EngineSessionCache.serve`.

    Plain data, so it pickles across the process-pool boundary.  ``cache``
    is the response's cache route (``session``, ``store``,
    ``engine_solve_count``); ``stats`` is the engine's per-solve counter
    snapshot, ``None`` when a lookup answered instead of a solve.
    """

    payload: dict
    cache: Dict[str, object]
    stats: Optional[Dict[str, int]]


class EngineSessionCache:
    """LRU cache of :class:`EngineSession`\\ s (thread-safe).

    ``capacity`` bounds the number of warm sessions (each pins a graph, its
    index and a baseline decomposition in memory); ``0`` disables caching —
    every request gets a fresh session, which is the benchmark's "cold"
    configuration.

    Counters live on a :class:`~repro.obs.metrics.MetricsRegistry` (under
    ``sessions.*``) — pass the owning service's registry so one metrics
    snapshot covers the whole stack; a private registry is created
    otherwise.  :meth:`stats` keeps its historical dict shape either way.
    """

    def __init__(
        self, capacity: int = 8, registry: Optional[MetricsRegistry] = None
    ) -> None:
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._sessions: "OrderedDict[Hashable, EngineSession]" = OrderedDict()
        self._lock = threading.Lock()
        self.metrics = registry if registry is not None else MetricsRegistry()
        self._stats = {
            key: self.metrics.counter(f"sessions.{key}")
            for key in ("hits", "misses", "evictions", "collisions")
        }

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def clear(self) -> int:
        """Drop every cached session; returns how many were released.

        The memory half of a graceful shutdown: a drained service calls
        this so warm engines (each pinning a graph, its index and baseline
        state) are released deterministically instead of whenever the
        service object happens to be collected.  In-flight solves keep
        their sessions alive until they finish — dropping the cache's
        reference is safe at any time.
        """
        with self._lock:
            count = len(self._sessions)
            self._sessions.clear()
            return count

    def stats(self) -> Dict[str, int]:
        """A snapshot of the hit/miss/eviction/collision counters."""
        with self._lock:
            snapshot = {key: counter.value for key, counter in self._stats.items()}
            snapshot["size"] = len(self._sessions)
            snapshot["capacity"] = self.capacity
            return snapshot

    def acquire(self, key: Hashable, graph: Graph) -> Tuple[EngineSession, str]:
        """Return a session for ``(key, graph)`` and how it was obtained.

        The status is ``"hit"`` (cached session reused), ``"miss"`` (session
        built and cached) or ``"bypass"`` (fingerprint collision or zero
        capacity: a fresh session that is *not* cached).  The caller must
        take ``session.lock`` before touching ``session.engine``.
        """
        with self._lock:
            session = self._sessions.get(key)
            if session is not None:
                if session.graph is graph or session.graph == graph:
                    self._sessions.move_to_end(key)
                    self._stats["hits"].inc()
                    return session, "hit"
                # Same key, different graph: a fingerprint collision.  Serve
                # correctness through a fresh uncached session (built below).
                self._stats["collisions"].inc()
                collided = True
            else:
                collided = False
                self._stats["misses"].inc()

        # Build outside the cache lock: engine construction (index build) is
        # the expensive part and must not serialise unrelated requests.
        session = EngineSession(key, graph, SolverEngine(graph))
        if collided or self.capacity == 0:
            return session, "bypass"

        with self._lock:
            existing = self._sessions.get(key)
            if existing is not None:
                if existing.graph is graph or existing.graph == graph:
                    # Another thread built the same session first; use theirs
                    # (one session per graph keeps same-graph requests
                    # serialised on one engine).
                    self._sessions.move_to_end(key)
                    return existing, "miss"
                self._stats["collisions"].inc()
                return session, "bypass"
            self._sessions[key] = session
            while len(self._sessions) > self.capacity:
                self._sessions.popitem(last=False)
                self._stats["evictions"].inc()
        return session, "miss"

    def serve(
        self,
        spec: SolveSpec,
        graph: Graph,
        fingerprint: str,
        lookup: Optional[Callable[[str], Optional[dict]]] = None,
        keep: Optional[Callable[[str, dict], None]] = None,
    ) -> Served:
        """Answer ``spec`` on the warm session for its graph: the solve step.

        Every solve the serving layer runs goes through here, on a pool
        thread or in a process worker.  Under the session lock,
        ``lookup(status)`` may answer first (it sees the acquire status, so
        it can refuse on a detected collision); a fresh solve's payload goes
        to ``keep(status, payload)`` before the lock is released, so a
        same-graph request queued on the lock finds it.  Process workers
        pass neither: the coordinating service reads and fills its store.
        """
        session, status = self.acquire(fingerprint, graph)
        stats: Optional[Dict[str, int]] = None
        with session.lock:
            payload = lookup(status) if lookup is not None else None
            answered = payload is not None
            if payload is None:
                with span("service.session_solve", session=status):
                    result = session.engine.solve_spec(spec)
                # Snapshot this solve's counters while the lock still
                # guarantees they are ours.
                stats = dict(session.engine.stats)
                payload = result_to_json(result)
                if keep is not None:
                    keep(status, payload)
            solve_count = session.engine.solve_count
        cache = {
            "session": status,
            "store": answered,
            "engine_solve_count": solve_count,
        }
        return Served(payload, cache, stats)
