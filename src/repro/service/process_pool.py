"""Process-executor workers: the service's solve step in another process.

The thread executor overlaps requests but cannot parallelise them — solves
are CPU-bound pure Python, so the GIL serialises the actual work.  The
process executor runs the same solve step,
:meth:`~repro.service.session_cache.EngineSessionCache.serve`, inside
:class:`~concurrent.futures.ProcessPoolExecutor` workers: each worker owns
a private :class:`~repro.api.resolve.GraphResolver` and
:class:`~repro.service.session_cache.EngineSessionCache`, set up once per
process by :func:`init_worker`, so repeated requests against one graph
stay warm inside the worker while requests against *different* graphs run
truly in parallel across workers (given the cores).

A worker only solves.  The coordinating
:class:`~repro.service.scheduler.SolveService` resolves every graph,
answers what its result store holds, ships ``(spec, fingerprint)`` jobs
and stores, counts and traces what comes back.

Everything in this module must stay importable and picklable from a bare
interpreter — no closures, no bound state — because worker processes
import it by name.  Replies hold only plain data, so nothing a solver
raises can make a reply unpicklable.
"""

from __future__ import annotations

import os
from typing import List, Optional, Tuple, Union

from repro.api.resolve import GraphResolver
from repro.api.spec import SolveSpec
from repro.obs.tracing import recording, span
from repro.service.faults import FAULT_SOLVER_ENV, install_fault_solver
from repro.service.resilience import (
    ResilienceError,
    classify_exception,
    failure_message,
)
from repro.service.session_cache import EngineSessionCache, Served
from repro.utils.errors import ReproError

__all__ = ["WorkerError", "init_worker", "solve_specs_in_worker"]

#: One unit of worker work: the spec plus the graph fingerprint the
#: coordinator resolved it to.  Registrations are per-process state — a
#: dataset re-registered after this worker forked would silently resolve
#: to the *old* graph here — so the worker refuses any source whose
#: fingerprint differs instead of serving a different graph.
WorkerJob = Tuple[SolveSpec, str]

#: One job's reply: the answer or the failure, plus the worker's finished
#: spans for a traced spec (``None`` otherwise).
WorkerReply = Tuple[Union[Served, "WorkerError"], Optional[List[dict]]]

#: Per-process serving state, created by :func:`init_worker` (the pool's
#: ``initializer``) or lazily on first use.
_RESOLVER: Optional[GraphResolver] = None
_SESSIONS: Optional[EngineSessionCache] = None


class WorkerError(ResilienceError):
    """A failure raised in a worker, carried home with its taxonomy entry.

    Any exception type may fail to pickle; this one always pickles, and
    :func:`~repro.service.resilience.classify_exception` reads the
    original's ``kind``/``retryable`` back off it.
    """

    def __init__(
        self, message: str, kind: str = "internal", retryable: bool = False
    ) -> None:
        super().__init__(message)
        self.kind = kind
        self.retryable = retryable


def init_worker(session_capacity: int = 4) -> None:
    """Bootstrap this worker process: resolver, session cache and the
    worker-only setup."""
    global _RESOLVER, _SESSIONS
    _RESOLVER = GraphResolver()
    _SESSIONS = EngineSessionCache(session_capacity)
    if os.environ.get(FAULT_SOLVER_ENV) == "1":
        # The chaos suite armed fault injection.  Registries are
        # per-process, so a worker would not know the test-only solver its
        # coordinator registered; the flag survives the fork or spawn.
        install_fault_solver()


def _answer(spec: SolveSpec, fingerprint: str) -> Union[Served, WorkerError]:
    """Serve one job on this worker's warm state; a failure is returned."""
    assert _RESOLVER is not None and _SESSIONS is not None
    try:
        graph, resolved = _RESOLVER.resolve(spec)
        if resolved != fingerprint:
            if spec.dataset is not None:
                raise ReproError(
                    f"stale dataset in worker: {spec.source_label()} resolves "
                    "to a different graph than the coordinator's registry "
                    "(re-registered after the process pool started); "
                    "re-create the service to pick up the new registration"
                )
            raise ReproError(
                f"graph changed under the worker: {spec.source_label()} no "
                "longer resolves to the graph the coordinator resolved"
            )
        return _SESSIONS.serve(spec, graph, fingerprint)
    except Exception as exc:  # noqa: BLE001 - serving boundary
        kind, retryable = classify_exception(exc)
        return WorkerError(failure_message(exc), kind, retryable)


def _solve_one(spec: SolveSpec, fingerprint: str) -> WorkerReply:
    """One job's reply.

    A traced spec is recorded worker-side — spans cannot cross a process
    boundary live, so the finished, relative-clock span list rides home in
    the reply and the coordinator grafts it into the request's trace (or
    buffers it standalone).
    """
    if spec.trace_id is None:
        return _answer(spec, fingerprint), None
    with recording(spec.trace_id) as trace:
        with span("worker.solve", algorithm=spec.algorithm, pid=os.getpid()):
            answer = _answer(spec, fingerprint)
    return answer, trace.to_dict()["spans"]


def solve_specs_in_worker(jobs: List[WorkerJob]) -> List[WorkerReply]:
    """Serve a group of jobs sequentially on this worker's warm state.

    The batching layer's grouping survives the process boundary: a whole
    same-graph group ships as one task, its first spec warms the worker's
    session and the rest reuse it back-to-back — exactly the thread
    executor's :meth:`~repro.service.scheduler.SolveService.submit_sequence`
    semantics.
    """
    if _RESOLVER is None or _SESSIONS is None:
        init_worker()
    return [_solve_one(spec, fingerprint) for spec, fingerprint in jobs]
