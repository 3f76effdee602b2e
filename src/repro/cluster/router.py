"""The front-end router: fingerprint-sharded dispatch with failover.

:class:`RouterService` is the cluster's single entry point.  It speaks
the *same* service interface the transports already serve —
``submit(spec) -> Future[SolveOutcome]``, ``metrics_snapshot()`` and
``health()`` — so :func:`repro.service.transports.serve_stream`,
:class:`~repro.service.transports.StdioTransport`,
:class:`~repro.service.transports.TcpTransport`, the batching layer and
``repro.cli obs`` all run unchanged against a router instead of a
single :class:`~repro.service.scheduler.SolveService`.

Routing invariants (tested in ``tests/test_cluster.py``):

* **Ownership** — each spec's graph fingerprint is resolved *without
  solving* (datasets via the memoised
  :func:`~repro.datasets.registry.dataset_fingerprint`, paths and inline
  edge lists via a :class:`~repro.api.resolve.GraphResolver` that hashes
  the loaded graph) and consistent-hashed onto the ring; repeats for a
  graph always land on the same backend, preserving session warmth.
* **Byte identity** — a routed outcome is the backend's outcome decoded
  from the wire; its ``canonical()`` form is identical to a direct
  single-service solve.  The router only annotates the non-canonical
  ``cache`` field (which backend served it, whether the router store
  answered).
* **Failover** — transport failures and retryable ``worker_crash`` /
  ``overloaded`` outcomes re-route to the ring successor (deterministic
  order), the failed backend is reported to the pool for mark-down and
  respawn, and every other outcome (``invalid``, ``timeout``,
  ``internal``) returns immediately — re-sending those cannot succeed.
  A backend that took the request but sent no reply within the request
  timeout is slow, not dead: the router closes that one connection and
  returns a retryable ``timeout`` without marking the backend down or
  re-running the solve elsewhere.  Refused, reset or closed connections
  and connect timeouts are transport failures.
* **Repeats** — deterministic requests (the
  :func:`~repro.api.session.memoizable` rule) are answered from a
  router-tier cross-backend :class:`~repro.service.result_store.ResultStore`
  without touching any backend.
* **Aggregation** — ``metrics_snapshot()`` merges every live backend's
  registry snapshot with the router's own
  (:func:`~repro.cluster.telemetry.merge_metrics_snapshots`), and
  ``health()`` rolls per-backend health into one cluster view; both ride
  the existing control-line ops.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.resolve import GraphResolver
from repro.api.spec import SolveOutcome, SolveSpec
from repro.cluster.backends import BackendPool
from repro.cluster.ring import DEFAULT_REPLICAS, HashRing
from repro.cluster.telemetry import merge_metrics_snapshots
from repro.datasets.registry import dataset_fingerprint
from repro.service.resilience import classify_exception
from repro.service.result_store import ResultStore
from repro.service.scheduler import memoizable

__all__ = ["RouterService"]

_METRICS_LINE = json.dumps({"op": "metrics"}, sort_keys=True)
_HEALTH_LINE = json.dumps({"op": "health"}, sort_keys=True)


class _ReplyTimeout(TimeoutError):
    """A backend took a request but sent no reply within the timeout.

    Still an :class:`OSError`, so a control request (health, metrics) that
    times out reports the backend down as any transport failure does; only
    :meth:`RouterService._route` tells a slow solve from a dead backend.
    """


class _ConnectionPool:
    """Pooled persistent TCP connections, one request in flight per socket.

    ``serve_stream`` answers lines in order per stream, so a checked-out
    socket carries exactly one request line and reads exactly one reply
    line before going back on the shelf — no framing beyond newlines, no
    interleaving.  A socket that errors (or whose backend address was
    retired by a respawn) is simply dropped; the next checkout dials
    fresh.
    """

    def __init__(self, max_idle_per_backend: int = 4) -> None:
        self.max_idle_per_backend = max_idle_per_backend
        self._lock = threading.Lock()
        self._idle: Dict[Tuple[str, int], List[Tuple[socket.socket, object]]] = {}
        self._closed = False

    def _checkout(
        self, address: Tuple[str, int], timeout: float
    ) -> Tuple[socket.socket, object]:
        with self._lock:
            idle = self._idle.get(address)
            if idle:
                conn, reader = idle.pop()
                conn.settimeout(timeout)
                return conn, reader
        conn = socket.create_connection(address, timeout=timeout)
        reader = conn.makefile("r", encoding="utf-8", newline="\n")
        return conn, reader

    def _checkin(
        self, address: Tuple[str, int], conn: socket.socket, reader
    ) -> None:
        with self._lock:
            if not self._closed:
                idle = self._idle.setdefault(address, [])
                if len(idle) < self.max_idle_per_backend:
                    idle.append((conn, reader))
                    return
        reader.close()
        conn.close()

    def request(
        self, host: str, port: int, line: str, timeout: float = 60.0
    ) -> str:
        """One line out, one line back, socket reused on success.

        A read that times out after the line was sent raises
        :class:`_ReplyTimeout`; the socket is closed, so the late reply can
        never be read as the answer to a later request.
        """
        address = (host, int(port))
        conn, reader = self._checkout(address, timeout)
        try:
            conn.sendall((line + "\n").encode("utf-8"))
            try:
                reply = reader.readline()
            except TimeoutError as exc:
                raise _ReplyTimeout(
                    f"backend {host}:{port} sent no reply within {timeout:g}s"
                ) from exc
        except BaseException:
            reader.close()
            conn.close()
            raise
        if not reply:
            reader.close()
            conn.close()
            raise ConnectionError(f"backend {host}:{port} closed the connection")
        self._checkin(address, conn, reader)
        return reply.rstrip("\n")

    def invalidate(self, host: str, port: int) -> None:
        """Drop every idle connection to a (possibly dead) address."""
        with self._lock:
            idle = self._idle.pop((host, int(port)), [])
        for conn, reader in idle:
            reader.close()
            conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle_map, self._idle = self._idle, {}
        for idle in idle_map.values():
            for conn, reader in idle:
                reader.close()
                conn.close()


class RouterService:
    """Fingerprint-sharded front end over a :class:`BackendPool`.

    Implements the transport-facing service interface (``submit`` /
    ``solve`` / ``solve_many`` / ``submit_sequence`` / ``health`` /
    ``metrics_snapshot`` / ``stats`` / ``drain`` / ``close``) so every
    existing serving entry point works against a cluster unchanged.
    """

    def __init__(
        self,
        pool: BackendPool,
        replicas: int = DEFAULT_REPLICAS,
        workers: int = 8,
        store_capacity: int = 256,
        request_timeout_s: float = 120.0,
        max_route_attempts: Optional[int] = None,
        resolver_capacity: int = 32,
    ) -> None:
        self.pool = pool
        self.ring = HashRing(pool.ids(), replicas=replicas)
        self.request_timeout_s = request_timeout_s
        self.max_route_attempts = max_route_attempts
        # One registry for the router tier: the pool's supervision counters
        # and the router's own metrics land in the same scrape.
        self.metrics = pool.metrics
        self._resolver = GraphResolver(capacity=resolver_capacity)
        self.store = ResultStore(store_capacity, registry=self.metrics)
        self._connections = _ConnectionPool()
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="router"
        )
        self._started = time.perf_counter()
        self._closed = False
        self._draining = False
        self._inflight = 0
        self._idle = threading.Condition()
        self._counters = {
            name: self.metrics.counter(f"router.{name}")
            for name in (
                "requests",
                "errors",
                "reroutes",
                "store_hits",
                "backend_failures",
                "exhausted",
            )
        }
        self._route_hist = self.metrics.histogram("router.route_s")

    # ------------------------------------------------------------------
    # Fingerprint resolution (no solving)
    # ------------------------------------------------------------------
    def fingerprint_of(self, spec: SolveSpec) -> str:
        """The spec's graph fingerprint — the shard key.

        Dataset specs use the memoised registry fingerprint; path and
        inline specs hash the resolved graph through the router's
        :class:`GraphResolver` cache.  No solve happens here.
        """
        if spec.dataset is not None:
            return dataset_fingerprint(spec.dataset)
        _, fingerprint = self._resolver.resolve(spec)
        return fingerprint

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_order(self, fingerprint: str) -> List[str]:
        """Owner-first failover chain, live backends before marked-down.

        Down backends stay in the chain (last) — supervision marks are
        advisory, and a stale mark-down must not make a key unroutable.
        """
        chain = self.ring.successors(fingerprint)
        up = [b for b in chain if self.pool.is_up(b)]
        down = [b for b in chain if not self.pool.is_up(b)]
        return up + down

    def _crash_outcome(self, spec: SolveSpec, exc: Exception) -> SolveOutcome:
        return SolveOutcome(
            request_id=spec.request_id,
            ok=False,
            error=f"backend connection failed: {exc}",
            error_kind="worker_crash",
            retryable=True,
        )

    def _spec_timeout(self, spec: SolveSpec) -> float:
        if spec.deadline_s is not None:
            return min(self.request_timeout_s, spec.deadline_s + 5.0)
        return self.request_timeout_s

    def _route(self, spec: SolveSpec) -> SolveOutcome:
        try:
            fingerprint = self.fingerprint_of(spec)
        except Exception as exc:
            kind, retryable = classify_exception(exc)
            return SolveOutcome(
                request_id=spec.request_id,
                ok=False,
                error=str(exc) or type(exc).__name__,
                error_kind=kind,
                retryable=retryable,
            )
        store_key = (fingerprint, spec.signature())
        cacheable = self.store.enabled and memoizable(spec)
        if cacheable:
            payload = self.store.get(store_key)
            if payload is not None:
                self._counters["store_hits"].inc()
                return SolveOutcome(
                    request_id=spec.request_id,
                    ok=True,
                    result=payload,
                    fingerprint=fingerprint,
                    cache={"router_store": True},
                )
        line = spec.canonical_json()
        timeout = self._spec_timeout(spec)
        order = self._route_order(fingerprint)
        attempts_allowed = (
            len(order) if self.max_route_attempts is None
            else min(self.max_route_attempts, len(order))
        )
        last: Optional[SolveOutcome] = None
        for attempt, backend_id in enumerate(order[:attempts_allowed]):
            if attempt > 0:
                self._counters["reroutes"].inc()
            host, port = self.pool.address_of(backend_id)
            try:
                reply = self._connections.request(host, port, line, timeout=timeout)
                outcome = SolveOutcome.from_json_dict(json.loads(reply))
            except _ReplyTimeout as exc:
                # Slow, not dead: the backend is still solving, so neither
                # mark it down nor re-run the solve on its successor.
                return SolveOutcome(
                    request_id=spec.request_id,
                    ok=False,
                    error=str(exc),
                    error_kind="timeout",
                    retryable=True,
                    cache={"backend": backend_id},
                )
            except (OSError, ValueError) as exc:
                self._counters["backend_failures"].inc()
                self._connections.invalidate(host, port)
                self.pool.report_failure(backend_id)
                last = self._crash_outcome(spec, exc)
                continue
            if (
                not outcome.ok
                and outcome.retryable
                and outcome.error_kind in ("worker_crash", "overloaded")
            ):
                # The backend answered but could not serve; its successor
                # might.  Crash taxonomy also marks the backend suspect.
                if outcome.error_kind == "worker_crash":
                    self.pool.report_failure(backend_id)
                last = outcome
                continue
            outcome.cache["backend"] = backend_id
            if cacheable and outcome.ok and outcome.result is not None:
                self.store.put(store_key, outcome.result)
            return outcome
        self._counters["exhausted"].inc()
        if last is not None:
            last.cache["route_exhausted"] = True
            return last
        return SolveOutcome(
            request_id=spec.request_id,
            ok=False,
            error="no backends available",
            error_kind="overloaded",
            retryable=True,
        )

    def _execute(self, spec: SolveSpec) -> SolveOutcome:
        started = time.perf_counter()
        self._counters["requests"].inc()
        with self._idle:
            self._inflight += 1
        try:
            outcome = self._route(spec)
        except Exception as exc:  # defensive serving boundary
            kind, retryable = classify_exception(exc)
            outcome = SolveOutcome(
                request_id=getattr(spec, "request_id", ""),
                ok=False,
                error=str(exc) or type(exc).__name__,
                error_kind=kind,
                retryable=retryable,
            )
        finally:
            with self._idle:
                self._inflight -= 1
                self._idle.notify_all()
        if not outcome.ok:
            self._counters["errors"].inc()
        self._route_hist.observe(time.perf_counter() - started)
        return outcome

    # ------------------------------------------------------------------
    # Service interface (what serve_stream / batching call)
    # ------------------------------------------------------------------
    def submit(self, spec: SolveSpec) -> "Future[SolveOutcome]":
        """Route one spec; the future resolves to the backend's outcome."""
        if self._closed:
            raise RuntimeError("router is closed")
        if self._draining:
            shed: "Future[SolveOutcome]" = Future()
            shed.set_result(
                SolveOutcome(
                    request_id=spec.request_id,
                    ok=False,
                    error="router draining",
                    error_kind="overloaded",
                    retryable=True,
                )
            )
            return shed
        return self._executor.submit(self._execute, spec)

    def submit_sequence(
        self, requests: Sequence[SolveSpec]
    ) -> "Future[List[SolveOutcome]]":
        """Route a same-graph group in order on one router worker.

        The batching layer's contract: group members run sequentially so
        the first solve warms the owning backend's session for the rest.
        The whole group shares one shard by construction (same graph ⇒
        same fingerprint ⇒ same owner).
        """
        if self._closed:
            raise RuntimeError("router is closed")
        specs = list(requests)
        return self._executor.submit(
            lambda: [self._execute(spec) for spec in specs]
        )

    def solve(self, spec: SolveSpec) -> SolveOutcome:
        """Route one spec synchronously."""
        return self._execute(spec)

    def solve_many(self, requests: Sequence[SolveSpec]) -> List[SolveOutcome]:
        """Route many specs concurrently; outcomes keep request order."""
        futures = [self.submit(spec) for spec in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Aggregated telemetry
    # ------------------------------------------------------------------
    def _control_request(
        self, backend_id: str, line: str
    ) -> Optional[Dict[str, object]]:
        host, port = self.pool.address_of(backend_id)
        try:
            reply = self._connections.request(
                host, port, line, timeout=self.pool.probe_timeout_s
            )
            payload = json.loads(reply)
        except (OSError, ValueError):
            self._connections.invalidate(host, port)
            self.pool.report_failure(backend_id)
            return None
        if isinstance(payload, dict):
            payload.pop("op", None)
            return payload
        return None

    def metrics_snapshot(self) -> Dict[str, object]:
        """Cluster-wide metrics: every live backend's registry + our own.

        The merged ``counters``/``gauges``/``histograms`` keep the
        registry-snapshot shape, so ``repro.cli obs --format prom``
        renders a cluster scrape unchanged; the ``cluster`` key carries
        the per-backend breakdown.
        """
        per_backend: Dict[str, object] = {}
        parts: List[Dict[str, object]] = []
        for backend_id in self.pool.ids():
            if not self.pool.is_up(backend_id):
                per_backend[backend_id] = {"status": "down"}
                continue
            body = self._control_request(backend_id, _METRICS_LINE)
            if body is None:
                per_backend[backend_id] = {"status": "down"}
                continue
            parts.append(body)
            per_backend[backend_id] = {
                "status": body.get("status", "ok"),
                "uptime_s": body.get("uptime_s"),
                "requests": dict(body.get("counters") or {}).get(
                    "service.requests", 0
                ),
            }
        merged = merge_metrics_snapshots(parts + [self.metrics.snapshot()])
        return {
            "status": self._cluster_status(),
            "uptime_s": round(time.perf_counter() - self._started, 6),
            **merged,
            "cluster": {
                "backends": per_backend,
                "up": sum(
                    1 for v in per_backend.values()
                    if v.get("status") != "down"  # type: ignore[union-attr]
                ),
                "total": len(per_backend),
            },
        }

    def _cluster_status(self) -> str:
        ids = self.pool.ids()
        up = sum(1 for backend_id in ids if self.pool.is_up(backend_id))
        if self._draining:
            return "draining"
        if up == len(ids) and up > 0:
            return "ok"
        return "degraded" if up > 0 else "down"

    def health(self) -> Dict[str, object]:
        """Cluster-wide health: supervision view + live per-backend probes."""
        backends: Dict[str, object] = {}
        inflight_total = 0
        for backend_id in self.pool.ids():
            backend = self.pool.get(backend_id)
            entry = backend.describe()
            if backend.status == "up":
                body = self._control_request(backend_id, _HEALTH_LINE)
                if body is not None:
                    entry["health"] = body
                    admission = body.get("admission")
                    if isinstance(admission, dict):
                        inflight_total += int(admission.get("inflight", 0) or 0)
                else:
                    entry["status"] = "down"
            backends[backend_id] = entry
        up = sum(
            1 for entry in backends.values()
            if entry["status"] == "up"  # type: ignore[index]
        )
        return {
            "status": self._cluster_status(),
            "role": "router",
            "uptime_s": round(time.perf_counter() - self._started, 6),
            "ring": {
                "replicas": self.ring.replicas,
                "backends": list(self.ring.backend_ids),
            },
            "backends": backends,
            "cluster": {
                "up": up,
                "total": len(backends),
                "inflight": inflight_total,
            },
            "router": {
                name: counter.value for name, counter in self._counters.items()
            },
            "result_store": self.store.stats(),
        }

    def stats(self) -> Dict[str, object]:
        """Router-side counters + supervision snapshot (batch summaries)."""
        return {
            "role": "router",
            "counters": {
                name: counter.value for name, counter in self._counters.items()
            },
            "result_store": self.store.stats(),
            "pool": self.pool.snapshot(),
            "uptime_s": round(time.perf_counter() - self._started, 6),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting, wait for in-flight routes to finish.

        Returns ``True`` once idle, ``False`` on timeout (mirroring
        :meth:`SolveService.drain`); new submits shed as ``overloaded``
        while draining.
        """
        self._draining = True
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._idle:
            while self._inflight > 0:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        return True

    def close(self, wait: bool = True) -> None:
        if self._closed:
            return
        self._draining = True
        self._closed = True
        self._executor.shutdown(wait=wait)
        self._connections.close()
