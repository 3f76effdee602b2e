"""The :class:`SolveService`: a concurrent solve-serving front end.

The service sits on the seam the solver registry opened: every request is a
canonical :class:`~repro.api.spec.SolveSpec` routed through
:meth:`SolverEngine.solve_spec`, so any registered solver — built-in or
third-party — is servable without the service knowing it exists.  On top of
that it adds the serving concerns the bare engine does not have:

* one way to answer a request: resolve its graph through one cached
  :class:`~repro.api.resolve.GraphResolver` (dataset names via the
  memoised registry, file paths via the ``.npz`` SNAP pipeline, inline
  edge lists by value), then either read the answer from the shared
  :class:`~repro.service.result_store.ResultStore` (deterministic
  requests only: a non-``randomized`` solver, or an explicit ``seed``) or
  solve on a warm session with
  :meth:`~repro.service.session_cache.EngineSessionCache.serve`, so
  requests against the *same* graph reuse one warm engine (index,
  baseline state, baseline follower snapshot) and serialise on its lock
  instead of racing;
* an **executor**, which only decides where that solve step runs:
  ``"thread"`` (the default — a
  :class:`~concurrent.futures.ThreadPoolExecutor`, overlapping requests
  against different graphs) or ``"process"`` (a
  :class:`~concurrent.futures.ProcessPoolExecutor` fed ``(spec,
  fingerprint)`` jobs, whose workers keep their own warm sessions — true
  cross-graph parallelism past the GIL; see
  :mod:`repro.service.process_pool`);
* the **resilience layer** (:mod:`repro.service.resilience`): deadlines
  enforced queue-side for every executor and dispatch-side (worker
  kill-and-rebuild) for the process executor; worker-crash detection with
  bounded deterministic-backoff re-dispatch; bounded admission
  (``max_inflight`` / ``max_queue_depth``) shedding excess load with fast
  structured ``overloaded`` outcomes; :meth:`SolveService.drain` and
  :meth:`SolveService.health` for graceful shutdown and introspection.
  Every failed outcome carries the structured
  ``error_kind`` / ``retryable`` taxonomy.

Determinism: a response's canonical payload (timings and warmth-dependent
work counters stripped) depends only on the spec, never on batching, thread
interleaving, executor choice, transport or cache state.
``tests/test_service.py`` hammers this property from many threads and
``tests/test_transports.py::TestEveryRoute`` asserts it across the full
{thread, process} × {stdio, tcp} grid for every registered solver.
"""

from __future__ import annotations

import logging
import math
import threading
import time
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FuturesTimeoutError
from concurrent.futures.process import BrokenProcessPool
from functools import partial
from typing import Dict, Hashable, Iterable, List, Optional, Sequence, Tuple

from repro.api.resolve import GraphResolver
from repro.api.session import memoizable
from repro.api.spec import SolveOutcome, SolveSpec, SpecError
from repro.graph.graph import Graph
from repro.obs.logs import get_logger, log_event
from repro.obs.metrics import (
    NULL_REGISTRY,
    SIZE_BUCKETS,
    MetricsRegistry,
)
from repro.obs.tracing import (
    current_trace,
    record_foreign_trace,
    recording,
    span,
)
from repro.service import process_pool
from repro.service.resilience import (
    AdmissionControl,
    DeadlineExceeded,
    Overloaded,
    RetryPolicy,
    WorkerCrashed,
    classify_exception,
    failure_message,
    remaining_deadline,
)
from repro.service.result_store import ResultStore
from repro.service.session_cache import EngineSessionCache, Served

__all__ = ["SolveService", "EXECUTORS"]

#: Default worker-pool width.  With the thread executor more workers buy
#: overlap of independent sessions (and responsiveness), not parallel
#: speedup; with the process executor they buy real cores.
DEFAULT_WORKERS = 4

#: Accepted ``executor`` values.
EXECUTORS = ("thread", "process")

#: The serving counters, in the order :meth:`SolveService.stats` reports
#: them.  Each is a ``service.<name>`` counter on the service's registry.
_COUNTER_KEYS = (
    "requests",
    "errors",
    "store_hits",
    "shed",
    "expired",
    "dispatch_timeouts",
    "worker_crashes",
    "pool_rebuilds",
    "retries",
    "group_retries",
)

_log = get_logger("service")


def _stored(payload: dict) -> Served:
    """A store answer read by the coordinator: no session was touched."""
    return Served(payload, {"session": "none", "store": True}, None)


class SolveService:
    """Accepts :class:`~repro.api.spec.SolveSpec`\\ s concurrently and serves
    :class:`~repro.api.spec.SolveOutcome`\\ s.

    Usable as a context manager::

        with SolveService(workers=4, session_capacity=8) as service:
            outcomes = service.solve_many(specs)

    ``executor`` selects where solves run: ``"thread"`` (default) or
    ``"process"`` (pickled jobs, per-worker session caches — real
    cross-graph parallelism).  ``session_capacity`` bounds the warm-engine
    cache (``0`` = a cold engine per request; for the process executor it
    bounds each *worker's* cache); ``store_capacity`` bounds the shared
    result store, the one answer cache (``0`` disables it; session reuse
    still applies).

    Resilience knobs: ``max_inflight`` bounds concurrently-executing
    requests (default: the worker count) and ``max_queue_depth`` the
    requests allowed to wait behind them — with a depth set, excess load is
    *shed* with a fast structured ``overloaded`` outcome instead of queueing
    unboundedly (``None``, the default, keeps admission unbounded).
    ``default_deadline_s`` applies to every spec that does not carry its own
    ``deadline_s``; ``retry_policy`` bounds the re-dispatch of jobs lost to
    process-pool worker crashes.

    ``metrics`` selects the telemetry sink: ``None`` (default) gives the
    service its own private :class:`~repro.obs.metrics.MetricsRegistry`
    (so two services in one process never share counters), ``False`` wires
    everything to the shared no-op registry (the obs-off configuration the
    overhead benchmark measures against), and an explicit registry is used
    as-is.  The session cache and result store report into the same
    registry, so :meth:`metrics_snapshot` covers the whole stack.
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        session_capacity: int = 8,
        executor: str = "thread",
        store_capacity: int = 256,
        max_inflight: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
        default_deadline_s: Optional[float] = None,
        retry_policy: Optional[RetryPolicy] = None,
        metrics: object = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if executor not in EXECUTORS:
            raise SpecError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if default_deadline_s is not None and not (
            math.isfinite(default_deadline_s) and default_deadline_s > 0
        ):
            raise ValueError(
                f"default_deadline_s must be finite and > 0, "
                f"got {default_deadline_s!r}"
            )
        self.executor = executor
        self.workers = workers
        if metrics is None:
            self.metrics: MetricsRegistry = MetricsRegistry()
        elif metrics is False:
            self.metrics = NULL_REGISTRY
        elif isinstance(metrics, MetricsRegistry):
            self.metrics = metrics
        else:
            raise TypeError(
                f"metrics must be None, False or a MetricsRegistry, got {metrics!r}"
            )
        self.sessions = EngineSessionCache(session_capacity, registry=self.metrics)
        self.store = ResultStore(store_capacity, registry=self.metrics)
        self.admission = AdmissionControl(workers, max_inflight, max_queue_depth)
        self.default_deadline_s = (
            float(default_deadline_s) if default_deadline_s is not None else None
        )
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        # The thread pool is always the coordination layer (submission,
        # ordering, response assembly); with executor="process" each of its
        # workers blocks on a process-pool task instead of solving inline.
        self._executor = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-solve"
        )
        # The process pool is replaceable: a crash or a dispatch-timeout
        # kill swaps in a fresh pool under _pool_lock (see _rebuild_pool).
        self._pool_lock = threading.Lock()
        self._process_pool: Optional[ProcessPoolExecutor] = None
        if executor == "process":
            self._process_pool = self._new_process_pool()
        self._closed = False
        self._draining = False
        self._resolver = GraphResolver()
        self._counters = {
            key: self.metrics.counter(f"service.{key}") for key in _COUNTER_KEYS
        }
        self._queue_hist = self.metrics.histogram("service.queue_wait_s")
        self._solve_hist = self.metrics.histogram("service.solve_s")
        self._resolve_hist = self.metrics.histogram("service.resolve_graph_s")
        self._engine_counters = {
            key: self.metrics.counter(f"engine.{key}")
            for key in (
                "solves",
                "incremental_peels",
                "full_peels",
                "incremental_gain_evals",
                "full_gain_evals",
                "tree_patches",
                "tree_rebuilds",
                "follower_recomputes",
            )
        }
        self._dirty_hist = self.metrics.histogram(
            "engine.dirty_closure_edges", buckets=SIZE_BUCKETS
        )
        self._started_unix = time.time()

    def _new_process_pool(self) -> ProcessPoolExecutor:
        # Workers inherit the service's cache semantics verbatim —
        # session_capacity=0 stays "a cold engine per request" on their
        # side of the process boundary too.
        return ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=process_pool.init_worker,
            initargs=(self.sessions.capacity,),
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self, wait: bool = True) -> None:
        self._closed = True
        self._draining = True
        self._executor.shutdown(wait=wait)
        with self._pool_lock:
            if self._process_pool is not None:
                self._process_pool.shutdown(wait=wait)
        if wait:
            # Release warm engines deterministically (each pins a graph, its
            # index and baseline state); in-flight solves — there are none
            # after a wait=True shutdown — would keep theirs alive anyway.
            self.sessions.clear()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Stop admitting work and wait for everything in flight to finish.

        New submissions are shed with ``overloaded`` outcomes from the
        moment this is called; returns ``True`` once every admitted request
        completed, ``False`` if ``timeout`` expired first (work is still in
        flight — the caller decides whether to abandon it).  Idempotent,
        and the service itself stays usable for introspection
        (:meth:`health`, :meth:`stats`) afterwards.
        """
        self._draining = True
        log_event(_log, "draining")
        return self.admission.wait_idle(timeout)

    def health(self) -> Dict[str, object]:
        """Readiness/introspection snapshot (JSON-serialisable).

        Exposed on the line protocol as the ``{"op": "health"}`` control
        request, so operators can probe a serving process without crafting
        a solve.
        """
        if self._closed:
            status = "closed"
        elif self._draining:
            status = "draining"
        else:
            status = "ok"
        counters: Dict[str, object] = self._counter_values()
        with self._pool_lock:
            pool = self._process_pool
            pool_state: Optional[Dict[str, object]] = None
            if self.executor == "process":
                pool_state = {
                    "alive": pool is not None and not getattr(pool, "_broken", False),
                    "rebuilds": counters["pool_rebuilds"],
                }
        return {
            "status": status,
            "executor": self.executor,
            "workers": self.workers,
            "admission": self.admission.snapshot(),
            "counters": counters,
            "sessions": self.sessions.stats(),
            "result_store": self.store.stats(),
            "process_pool": pool_state,
            "default_deadline_s": self.default_deadline_s,
            "retry_policy": {
                "max_attempts": self.retry_policy.max_attempts,
                "base_delay_s": self.retry_policy.base_delay_s,
                "backoff": self.retry_policy.backoff,
                "max_delay_s": self.retry_policy.max_delay_s,
            },
            # Additive since the obs layer: probe age plus the top-line
            # latency summary, so a bare health poll answers "how slow".
            "uptime_s": round(time.time() - self._started_unix, 3),
            "metrics": {
                "requests": counters["requests"],
                "errors": counters["errors"],
                "shed": counters["shed"],
                "expired": counters["expired"],
                "solve_p50_s": self._solve_hist.quantile(0.50),
                "solve_p95_s": self._solve_hist.quantile(0.95),
                "solve_p99_s": self._solve_hist.quantile(0.99),
                "queue_p95_s": self._queue_hist.quantile(0.95),
            },
        }

    def __enter__(self) -> "SolveService":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()

    def stats(self) -> Dict[str, object]:
        """Serving counters plus session-cache and result-store statistics."""
        snapshot: Dict[str, object] = self._counter_values()
        snapshot["executor"] = self.executor
        snapshot["sessions"] = self.sessions.stats()
        snapshot["result_store"] = self.store.stats()
        return snapshot

    def session_info(self) -> Dict[str, object]:
        """Cache-layer diagnostics: warm sessions plus the shared result store.

        The cross-graph store's hit/miss counters live here (alongside
        :meth:`stats`) so operators can see how much traffic outlived
        session eviction.
        """
        return {
            "executor": self.executor,
            "sessions": self.sessions.stats(),
            "result_store": self.store.stats(),
        }

    def _count(self, key: str) -> None:
        self._counters[key].inc()

    def _counter_values(self) -> Dict[str, object]:
        return {key: counter.value for key, counter in self._counters.items()}

    def metrics_snapshot(self) -> Dict[str, object]:
        """The full registry snapshot — the ``{"op": "metrics"}`` payload.

        Everything reported into this service's registry: serving counters,
        session-cache and result-store counters, engine re-peel counters
        folded per solve, and the latency histograms with their
        p50/p95/p99 estimates.  JSON-serialisable.
        """
        return {
            "status": "closed" if self._closed else (
                "draining" if self._draining else "ok"
            ),
            "uptime_s": round(time.time() - self._started_unix, 3),
            **self.metrics.snapshot(),
        }

    def metrics_text(self) -> str:
        """The registry in the Prometheus text exposition format."""
        return self.metrics.to_prometheus_text()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    @staticmethod
    def _as_spec(request: object) -> SolveSpec:
        if not isinstance(request, SolveSpec):
            raise SpecError(
                f"expected a repro.api.SolveSpec, got {type(request).__name__}"
            )
        return request

    def _shed_outcome(self, request: object, submitted: float) -> SolveOutcome:
        """A fast structured ``overloaded`` rejection (no executor round-trip)."""
        self._count("requests")
        self._count("shed")
        if self._draining:
            reason = "service is draining; not accepting new work"
        else:
            reason = (
                "admission queue full "
                f"(max_inflight={self.admission.max_inflight}, "
                f"max_queue_depth={self.admission.max_queue_depth}); retry later"
            )
        return self._error_outcome(request, Overloaded(reason), submitted, submitted)

    def _run_admitted(self, request: SolveSpec, submitted: float) -> SolveOutcome:
        self.admission.start()
        try:
            return self._execute(request, submitted)
        finally:
            self.admission.finish()

    def submit(self, request: SolveSpec) -> "Future[SolveOutcome]":
        """Enqueue one spec; the future resolves to its outcome.

        Never raises for a bad spec — failures come back as ``ok=False``
        outcomes, so one malformed entry cannot poison a batch.  A request
        beyond the admission window (or submitted while draining) resolves
        immediately to a structured ``overloaded`` outcome without ever
        touching the executor — shedding must stay fast under exactly the
        load that made it necessary.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        submitted = time.perf_counter()
        if self._draining or not self.admission.try_admit():
            shed: "Future[SolveOutcome]" = Future()
            shed.set_result(self._shed_outcome(request, submitted))
            return shed
        return self._executor.submit(self._run_admitted, request, submitted)

    def submit_sequence(
        self, requests: Sequence[SolveSpec]
    ) -> "Future[List[SolveOutcome]]":
        """Enqueue a group to run *sequentially* on one worker.

        The batching layer groups same-graph specs and submits each group
        through here: the group's first spec warms the session and the rest
        hit it back-to-back, while distinct groups still spread across the
        pool.  With the process executor the whole group ships as one
        worker task, so the warm-session semantics survive the process
        boundary.

        Admission is all-or-nothing per group (admitting half a batch would
        break the batching layer's ordering contract): a group that does
        not fit the admission window is shed whole.
        """
        if self._closed:
            raise RuntimeError("service is closed")
        submitted = time.perf_counter()
        count = len(requests)
        if self._draining or (count > 0 and not self.admission.try_admit(count)):
            shed_all: "Future[List[SolveOutcome]]" = Future()
            shed_all.set_result(
                [self._shed_outcome(request, submitted) for request in requests]
            )
            return shed_all

        def _run() -> List[SolveOutcome]:
            self.admission.start(count)
            try:
                if self.executor == "process":
                    return self._execute_group_in_process(list(requests), submitted)
                return [self._execute(request, submitted) for request in requests]
            finally:
                self.admission.finish(count)

        return self._executor.submit(_run)

    def solve(self, request: SolveSpec) -> SolveOutcome:
        """Serve one spec synchronously (no queueing)."""
        return self._execute(request, time.perf_counter())

    def solve_many(self, requests: Iterable[SolveSpec]) -> List[SolveOutcome]:
        """Serve many specs concurrently; outcomes keep request order."""
        futures = [self.submit(request) for request in requests]
        return [future.result() for future in futures]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _resolve_graph(self, spec: SolveSpec) -> Tuple[Graph, str]:
        """The spec's graph plus its content fingerprint (both cached)."""
        with span("service.resolve_graph", source=spec.source_label()):
            with self._resolve_hist.time():
                return self._resolver.resolve(spec)

    # ------------------------------------------------------------------
    # The result store
    # ------------------------------------------------------------------
    def _store_key(self, spec: SolveSpec, fingerprint: str) -> Optional[Hashable]:
        """The spec's store key, or ``None`` when the store must not hold
        its answer (store off, or a non-deterministic spec)."""
        if not (self.store.enabled and memoizable(spec)):
            return None
        return (fingerprint, spec.signature())

    def _collided(self, status: Optional[str]) -> bool:
        """Whether a session acquire detected a fingerprint collision.

        A ``"bypass"`` while warm sessions are configured means the cached
        graph differed from this one, so a stored payload could belong to
        the other graph.  With ``session_capacity=0`` every acquire
        bypasses by design (nothing cached, nothing to collide with) and
        the store stays live — it is the only reuse left there.
        """
        return status == "bypass" and self.sessions.capacity > 0

    def _store_get(
        self, key: Optional[Hashable], status: Optional[str] = None
    ) -> Optional[dict]:
        if key is None or self._collided(status):
            return None
        return self.store.get(key)

    def _store_put(self, key: Optional[Hashable], status: str, payload: dict) -> None:
        """Store a solved payload — the collision rule for both executors."""
        if key is not None and not self._collided(status):
            self.store.put(key, payload)

    # ------------------------------------------------------------------
    # Deadlines
    # ------------------------------------------------------------------
    def _effective_deadline(self, spec: SolveSpec) -> Optional[float]:
        """The spec's own deadline, or the service default, or ``None``."""
        if spec.deadline_s is not None:
            return spec.deadline_s
        return self.default_deadline_s

    def _remaining(self, spec: SolveSpec, submitted: float) -> Optional[float]:
        """Seconds left of the spec's deadline (``None`` = no deadline)."""
        return remaining_deadline(self._effective_deadline(spec), submitted)

    def _check_deadline(self, spec: SolveSpec, submitted: float) -> None:
        """Queue-side enforcement: expire a request *before* dispatching it.

        Deadlines anchor at submission, so time spent waiting behind the
        admission window counts; this runs on every executor (the thread
        executor cannot interrupt a running solve, so queue-side is its
        only enforcement point — dispatch-side enforcement is the process
        executor's, via worker kill-and-rebuild).
        """
        remaining = self._remaining(spec, submitted)
        if remaining is not None and remaining <= 0:
            self._count("expired")
            raise DeadlineExceeded(
                f"deadline_s={self._effective_deadline(spec)} expired after "
                f"{time.perf_counter() - submitted:.3f}s in queue (never dispatched)"
            )

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def _execute(self, request: SolveSpec, submitted: float) -> SolveOutcome:
        started = time.perf_counter()
        self._count("requests")
        self._queue_hist.observe(started - submitted)
        try:
            spec = self._as_spec(request).require_source()
            if spec.trace_id is None:
                return self._execute_admitted(spec, submitted, started)
            # A traced request: record its span tree for the ring buffer.
            # The queue wait predates the trace object, so it goes in as an
            # externally timed span.
            with recording(spec.trace_id) as trace:
                trace.add_span("service.queued", submitted, started)
                with span(
                    "service.execute",
                    request_id=spec.request_id,
                    algorithm=spec.algorithm,
                    executor=self.executor,
                ):
                    return self._execute_admitted(spec, submitted, started)
        except Exception as exc:  # noqa: BLE001 - serving boundary
            # The contract is "never raises for a bad request": anything a
            # hand-crafted spec can still trigger past the validation
            # (wrong-typed field values, exotic vertex labels) must come
            # back as a failed outcome, not kill the loop.
            return self._error_outcome(request, exc, submitted, started)

    def _execute_admitted(
        self, spec: SolveSpec, submitted: float, started: float
    ) -> SolveOutcome:
        """Serve one validated spec (deadline check, resolve, answer)."""
        self._check_deadline(spec, submitted)
        graph, fingerprint = self._resolve_graph(spec)
        return self._answer(spec, graph, fingerprint, submitted, started)

    def _answer(
        self,
        spec: SolveSpec,
        graph: Graph,
        fingerprint: str,
        submitted: float,
        started: float,
    ) -> SolveOutcome:
        """From the store, or from one solve on a warm session — which runs
        on this thread or in a process worker; nothing else differs."""
        key = self._store_key(spec, fingerprint)
        if self.executor == "thread":
            # Acquire the session, then read the store under its lock (unless
            # the acquire detected a collision); a solved payload is stored
            # before the lock is released, so a same-graph repeat queued on
            # the lock finds it.
            served = self.sessions.serve(
                spec,
                graph,
                fingerprint,
                lookup=partial(self._store_get, key),
                keep=partial(self._store_put, key),
            )
            return self._served_outcome(spec, fingerprint, served, submitted, started)
        payload = self._store_get(key)
        if payload is not None:
            return self._served_outcome(
                spec, fingerprint, _stored(payload), submitted, started
            )
        with span("service.dispatch", executor="process"):
            replies = self._dispatch_with_retry(
                [(spec, fingerprint)], partial(self._remaining, spec, submitted)
            )
        served = self._receive(spec, key, replies[0], started)
        return self._served_outcome(spec, fingerprint, served, submitted, started)

    def _observe_engine(self, engine_stats: Dict[str, int], payload: dict) -> None:
        """Fold one solve's engine counters into the registry.

        Per-solve (not per-event) so the engine's hot loops carry no
        registry calls at all — the scheduler reads the ``stats`` dict the
        engine already maintains (shipped home by process workers) and adds
        it up here, outside the session lock.
        """
        self._engine_counters["solves"].inc()
        for key in (
            "incremental_peels",
            "full_peels",
            "incremental_gain_evals",
            "full_gain_evals",
            "tree_patches",
            "tree_rebuilds",
        ):
            amount = int(engine_stats.get(key, 0))
            if amount:
                self._engine_counters[key].inc(amount)
        dirty = int(engine_stats.get("dirty_edges", 0))
        peels = int(engine_stats.get("incremental_peels", 0))
        if peels:
            # One averaged observation per solve: the histogram tracks the
            # typical dirty-closure size without per-peel bookkeeping.
            self._dirty_hist.observe(dirty / peels)
        extra = payload.get("extra") if isinstance(payload, dict) else None
        if isinstance(extra, dict):
            recomputed = extra.get("recomputed_entries_per_round")
            if isinstance(recomputed, (list, tuple)):
                total = sum(int(n) for n in recomputed)
                if total:
                    self._engine_counters["follower_recomputes"].inc(total)

    def _served_outcome(
        self,
        spec: SolveSpec,
        fingerprint: str,
        served: Served,
        submitted: float,
        started: float,
    ) -> SolveOutcome:
        """The one success path: count, fold engine stats, respond."""
        if served.cache["store"]:
            self._count("store_hits")
        if served.stats is not None:
            self._observe_engine(served.stats, served.payload)
        finished = time.perf_counter()
        self._solve_hist.observe(finished - started)
        return SolveOutcome(
            request_id=spec.request_id,
            ok=True,
            result=served.payload,
            fingerprint=fingerprint,
            cache=served.cache,
            timings={
                "queued_s": round(started - submitted, 6),
                "solve_s": round(finished - started, 6),
            },
        )

    def _error_outcome(
        self, request: object, exc: BaseException, submitted: float, started: float
    ) -> SolveOutcome:
        """The one failure path: ``exc`` classified by the resilience
        taxonomy (a shed request's :class:`Overloaded` included)."""
        self._count("errors")
        kind, retryable = classify_exception(exc)
        message = failure_message(exc)
        log_event(
            _log, "request_failed", level=logging.DEBUG, kind=kind, error=message
        )
        return SolveOutcome(
            request_id=request.request_id if isinstance(request, SolveSpec) else "",
            ok=False,
            error=message,
            error_kind=kind,
            retryable=retryable,
            timings={
                "queued_s": round(started - submitted, 6),
                "solve_s": round(time.perf_counter() - started, 6),
            },
        )

    # ------------------------------------------------------------------
    # Process-executor dispatch
    # ------------------------------------------------------------------
    def _current_pool(self) -> ProcessPoolExecutor:
        with self._pool_lock:
            pool = self._process_pool
        if pool is None:
            raise RuntimeError("service has no process pool")
        return pool

    def _rebuild_pool(
        self, broken: ProcessPoolExecutor, kill: bool = False
    ) -> ProcessPoolExecutor:
        """Replace a broken (or deliberately killed) pool with a fresh one.

        Identity-checked under the pool lock so concurrent detectors of the
        same failure rebuild exactly once; every other in-flight dispatch
        against the dead pool surfaces ``BrokenProcessPool`` and re-enters
        through its own retry loop against the fresh pool.  ``kill=True``
        is the dispatch-timeout path: the workers are not dead, just stuck
        past a deadline, so they are killed first (a thread cannot be
        interrupted, but a process can).
        """
        with self._pool_lock:
            if self._process_pool is not broken:
                # Someone else already swapped the pool; use theirs.
                return self._process_pool  # type: ignore[return-value]
            if kill:
                for worker in list(getattr(broken, "_processes", {}).values()):
                    worker.kill()
            broken.shutdown(wait=False, cancel_futures=True)
            self._process_pool = self._new_process_pool()
            self._count("pool_rebuilds")
            log_event(_log, "pool_rebuild", killed=kill)
            return self._process_pool

    def _dispatch_with_retry(
        self,
        jobs: List[process_pool.WorkerJob],
        timeout_fn,
        in_flight: Optional[Tuple[ProcessPoolExecutor, Future]] = None,
    ) -> List[process_pool.WorkerReply]:
        """Ship jobs to the process pool, surviving crashes and deadlines.

        The one retry loop.  ``timeout_fn`` re-evaluates the remaining
        deadline budget before every attempt (``None`` = no deadline).  A
        dispatch timeout kills and rebuilds the pool — the only way to
        reclaim a worker stuck in a solve — and raises
        :class:`DeadlineExceeded`; a worker crash rebuilds the pool and
        re-dispatches on the retry policy's deterministic backoff schedule
        until it is exhausted (:class:`WorkerCrashed`).  ``in_flight`` is a
        ``(pool, future)`` first attempt the caller already submitted.
        """
        attempt = 0
        while True:
            timeout = timeout_fn()
            if in_flight is None:
                if timeout is not None and timeout <= 0:
                    self._count("expired")
                    raise DeadlineExceeded(
                        "deadline expired before re-dispatch "
                        f"(after {attempt} crash retr{'y' if attempt == 1 else 'ies'})"
                    )
                pool = self._current_pool()
                future = pool.submit(process_pool.solve_specs_in_worker, jobs)
                in_flight = (pool, future)
            pool, future = in_flight
            in_flight = None
            try:
                return future.result(timeout=timeout)
            except FuturesTimeoutError:
                self._count("dispatch_timeouts")
                self._rebuild_pool(pool, kill=True)
                raise DeadlineExceeded(
                    f"deadline expired during dispatch (deadline budget "
                    f"{timeout:.3f}s); worker killed and pool rebuilt"
                ) from None
            except BrokenProcessPool:
                self._count("worker_crashes")
                self._rebuild_pool(pool)
                attempt += 1
                if attempt >= self.retry_policy.max_attempts:
                    raise WorkerCrashed(
                        f"worker crashed serving this request; "
                        f"{attempt} attempt(s) exhausted "
                        f"(retry policy: {self.retry_policy})"
                    ) from None
                self._count("retries")
                delay = self.retry_policy.delay(attempt)
                if delay > 0:
                    time.sleep(delay)

    def _receive(
        self,
        spec: SolveSpec,
        key: Optional[Hashable],
        reply: object,
        started: float,
    ) -> Served:
        """Unpack one job's reply: graft its spans, raise its failure, or
        store its answer."""
        if isinstance(reply, Exception):
            raise reply  # the dispatch itself failed (deadline, crash)
        answer, worker_spans = reply  # type: ignore[misc]
        if worker_spans:
            # The worker recorded its own spans (relative clock): splice them
            # into the live trace when this thread is recording the same
            # request, otherwise buffer them as a standalone trace (the
            # grouped path delivers on a thread with no recording context).
            trace = current_trace()
            if trace is not None and trace.trace_id == spec.trace_id:
                trace.graft(worker_spans, at=started)
            elif spec.trace_id is not None:
                record_foreign_trace(spec.trace_id, worker_spans)
        if isinstance(answer, Exception):
            raise answer
        self._store_put(key, str(answer.cache["session"]), answer.payload)
        return answer

    def _group_timeout(
        self, specs: Sequence[SolveSpec], submitted: float
    ) -> Optional[float]:
        """The group dispatch's future timeout: the *loosest* member deadline.

        A group ships as one worker task, so a single member's deadline
        cannot interrupt it without killing everyone else's work too; only
        when **every** member carries a deadline is a group timeout sound
        (past the maximum remaining budget, all of them have expired).
        Tighter individual deadlines are still honoured queue-side and in
        the per-job fallback.
        """
        remainings: List[float] = []
        for spec in specs:
            remaining = self._remaining(spec, submitted)
            if remaining is None:
                return None
            remainings.append(remaining)
        return max(remainings) if remainings else None

    def _dispatch_group(
        self, jobs: List[process_pool.WorkerJob], submitted: float
    ) -> List[object]:
        """Run a group's jobs as one worker task; one reply or exception
        per job.

        A group task that fails for any other reason than its deadline
        (a crasher, an unpicklable parameter) must not take the good jobs
        down with it: every job is submitted once more as its own task,
        all at once so they run in parallel across workers, and each one
        is collected through :meth:`_dispatch_with_retry` (counted in
        ``stats()["group_retries"]``).
        """
        pool = self._current_pool()
        try:
            return pool.submit(process_pool.solve_specs_in_worker, jobs).result(
                timeout=self._group_timeout([spec for spec, _fp in jobs], submitted)
            )
        except FuturesTimeoutError:
            # Every member carried a deadline and even the loosest one has
            # expired: the whole group is a timeout.
            self._count("dispatch_timeouts")
            self._rebuild_pool(pool, kill=True)
            expired = DeadlineExceeded(
                "deadline expired during group dispatch; "
                "worker killed and pool rebuilt"
            )
            return [expired] * len(jobs)
        except Exception as exc:  # noqa: BLE001 - serving boundary
            if isinstance(exc, BrokenProcessPool):
                self._count("worker_crashes")
                self._rebuild_pool(pool)
            self._count("group_retries")
        pool = self._current_pool()
        in_flight = [
            (pool, pool.submit(process_pool.solve_specs_in_worker, [job]))
            for job in jobs
        ]
        replies: List[object] = []
        for job, first in zip(jobs, in_flight):
            try:
                replies.extend(
                    self._dispatch_with_retry(
                        [job], partial(self._remaining, job[0], submitted), first
                    )
                )
            except Exception as exc:  # noqa: BLE001 - serving boundary
                replies.append(exc)
        return replies

    def _execute_group_in_process(
        self, requests: List[SolveSpec], submitted: float
    ) -> List[SolveOutcome]:
        """Run a same-session group as one process-pool task.

        Members the store already answers never ship; the rest go as one
        worker task so the group's warm-session semantics survive the
        process boundary.  A member that repeats a shipped member's store
        key is held back and answered once that member's reply is stored
        (or, if it failed, dispatched on its own).
        """
        started = time.perf_counter()
        outcomes: List[Optional[SolveOutcome]] = [None] * len(requests)
        shipped: List[Tuple[int, SolveSpec, str, Optional[Hashable]]] = []
        held: List[Tuple[int, SolveSpec, Graph, str]] = []
        shipped_keys = set()
        for position, request in enumerate(requests):
            self._count("requests")
            try:
                spec = self._as_spec(request).require_source()
                self._check_deadline(spec, submitted)
                graph, fingerprint = self._resolve_graph(spec)
                key = self._store_key(spec, fingerprint)
                if key is not None and key in shipped_keys:
                    held.append((position, spec, graph, fingerprint))
                    continue
                payload = self._store_get(key)
                if payload is not None:
                    outcomes[position] = self._served_outcome(
                        spec, fingerprint, _stored(payload), submitted, started
                    )
                    continue
                if key is not None:
                    shipped_keys.add(key)
                shipped.append((position, spec, fingerprint, key))
            except Exception as exc:  # noqa: BLE001 - serving boundary
                outcomes[position] = self._error_outcome(
                    request, exc, submitted, started
                )
        if shipped:
            replies = self._dispatch_group(
                [(spec, fingerprint) for _pos, spec, fingerprint, _key in shipped],
                submitted,
            )
            for (position, spec, fingerprint, key), reply in zip(shipped, replies):
                try:
                    served = self._receive(spec, key, reply, started)
                    outcomes[position] = self._served_outcome(
                        spec, fingerprint, served, submitted, started
                    )
                except Exception as exc:  # noqa: BLE001 - serving boundary
                    outcomes[position] = self._error_outcome(
                        spec, exc, submitted, started
                    )
        for position, spec, graph, fingerprint in held:
            try:
                outcomes[position] = self._answer(
                    spec, graph, fingerprint, submitted, started
                )
            except Exception as exc:  # noqa: BLE001 - serving boundary
                outcomes[position] = self._error_outcome(
                    spec, exc, submitted, started
                )
        assert all(outcome is not None for outcome in outcomes)
        return outcomes  # type: ignore[return-value]
