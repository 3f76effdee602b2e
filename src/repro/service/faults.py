"""Deterministic fault injection for the resilience layer's chaos tests.

Chaos testing is only useful when it is *reproducible*: a probabilistic
fault that fires on one CI run and not the next proves nothing.  This
module therefore injects faults through the **solver registry seam** —
the same extension point third-party solvers use — as a test-only solver
named :data:`FAULT_SOLVER` whose behaviour is selected entirely by spec
params:

* ``fault="none"`` — solve normally (a tiny deterministic
  :class:`~repro.core.result.AnchorResult`), optionally after sleeping
  ``sleep_s`` seconds.  The sleep is the slow-solve / deadline fault point;
* ``fault="error"`` — raise a :class:`~repro.utils.errors.ReproError`
  carrying ``message`` (the ``invalid`` taxonomy path);
* ``fault="crash"`` — kill the worker **process** with
  ``os._exit(exit_code)`` after sleeping ``sleep_s``.  This is the
  :class:`~concurrent.futures.process.BrokenProcessPool` fault point; the
  pre-exit sleep is what makes mid-batch crashes deterministic — jobs
  dispatched alongside the poison job finish (and keep their completed
  futures) before the pool breaks.

Because every fault is named in the spec, a chaos run is a pure function
of its request file — same requests, same faults, same outcomes.

The solver registers as ``randomized=True`` even though it is
deterministic: that opts it out of the shared result store, so a sleep or
crash fault cannot be defeated by a cached answer from an earlier repeat
of the same spec.

Process-pool workers have their own registry (fresh interpreter state per
process), so :func:`install_fault_solver` also sets
:data:`FAULT_SOLVER_ENV` in ``os.environ`` — worker processes inherit the
environment, and the worker bootstrap
(:func:`repro.service.process_pool.init_worker`) re-registers the solver
on the worker's side of the process boundary when the flag is set.

:func:`send_and_drop` is the transport-layer fault point: a client that
aborts its connection (RST, via ``SO_LINGER``) mid-stream, for proving
``serve_stream`` survives a vanished peer.
"""

from __future__ import annotations

import multiprocessing
import os
import socket
import struct
import time
from typing import Iterable

from repro.core.engine import SolverEngine, register_solver
from repro.core.result import AnchorResult
from repro.api.spec import SolveSpec
from repro.utils.errors import ReproError

__all__ = [
    "FAULT_KINDS",
    "FAULT_SOLVER",
    "FAULT_SOLVER_ENV",
    "install_fault_solver",
    "send_and_drop",
    "uninstall_fault_solver",
]

#: The test-only solver's registry name.
FAULT_SOLVER = "faulty"

#: Environment flag that makes worker processes self-register the solver.
FAULT_SOLVER_ENV = "REPRO_FAULT_SOLVER"

#: Accepted ``fault`` parameter values.
FAULT_KINDS = ("none", "error", "crash")

#: Spec params the solver reads.  ``nonce`` does nothing — it exists so a
#: test can mint distinct signatures for otherwise-identical specs.
FAULT_PARAMS = ("fault", "sleep_s", "exit_code", "message", "nonce")


def _fault_solver(engine: SolverEngine, spec: SolveSpec) -> AnchorResult:
    """The injectable solver: behaviour selected by spec params."""
    params = dict(spec.params)
    fault = str(params.get("fault", "none"))
    if fault not in FAULT_KINDS:
        raise ReproError(
            f"unknown fault {fault!r}; expected one of {FAULT_KINDS}"
        )
    sleep_s = float(params.get("sleep_s", 0.0))
    if sleep_s > 0:
        time.sleep(sleep_s)
    if fault == "error":
        raise ReproError(str(params.get("message", "injected error")))
    if fault == "crash":
        if multiprocessing.current_process().name == "MainProcess":
            # A thread-executor "crash" would take the whole test process
            # (and its pytest session) with it.  Refuse: crash faults are
            # meaningful only against process-pool workers.
            raise ReproError(
                "crash fault refused: not in a worker process "
                "(os._exit here would kill the coordinator)"
            )
        os._exit(int(params.get("exit_code", 13)))  # pragma: no cover
    # A deterministic result independent of engine warmth: budget anchors'
    # worth of bookkeeping without touching truss state, so byte-identity
    # comparisons across executors/transports are trivial to reason about.
    return AnchorResult(
        algorithm=FAULT_SOLVER,
        anchors=[],
        gain=0,
        per_round_gain=[0] * spec.budget,
        followers=set(),
        gain_by_trussness={},
        elapsed_seconds=0.0,
        extra={
            "fault": fault,
            "sleep_s": sleep_s,
            "num_vertices": engine.graph.num_vertices,
            "num_edges": engine.graph.num_edges,
        },
    )


def install_fault_solver() -> None:
    """Register the fault solver (idempotent) and arm worker self-registration.

    Sets :data:`FAULT_SOLVER_ENV` *before* registering so a process pool
    forked at any later point inherits the flag.  ``replace=True`` makes
    repeated installs (one per test) harmless.
    """
    os.environ[FAULT_SOLVER_ENV] = "1"
    register_solver(
        FAULT_SOLVER,
        _fault_solver,
        description="test-only fault-injection solver (resilience chaos suite)",
        replace=True,
        params=FAULT_PARAMS,
        # Deterministic, but marked randomized to opt out of the result
        # store: a cached answer would defeat sleep/crash faults on repeats.
        randomized=True,
    )


def uninstall_fault_solver() -> None:
    """Remove the fault solver and disarm worker self-registration.

    The chaos suite cleans up after itself: solver-table assertions
    elsewhere (the CLI's solver list, the benchmark's determinism grid)
    must never see the test-only solver.
    """
    os.environ.pop(FAULT_SOLVER_ENV, None)
    from repro.core import engine as _engine

    _engine._REGISTRY.pop(FAULT_SOLVER, None)


def send_and_drop(host: str, port: int, lines: Iterable[str]) -> None:
    """Send request lines, then abort the connection (RST) without reading.

    ``SO_LINGER`` with a zero timeout turns ``close()`` into a hard reset
    instead of a graceful FIN, so the server's next write or read on the
    connection fails — the deterministic "client vanished mid-stream"
    fault for the transport tests.
    """
    payload = "".join(line.rstrip("\n") + "\n" for line in lines)
    with socket.create_connection((host, port), timeout=10.0) as conn:
        conn.sendall(payload.encode("utf-8"))
        conn.setsockopt(
            socket.SOL_SOCKET,
            socket.SO_LINGER,
            # onoff=1, linger=0: close() discards and sends RST.
            struct.pack("ii", 1, 0),
        )
