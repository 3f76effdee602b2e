"""Backend pool supervision: launch, probe, mark-down, respawn.

The cluster tier treats a backend as *any* TCP endpoint speaking the PR 5
JSON-lines protocol — one :class:`~repro.api.spec.SolveSpec` per line in,
one :class:`~repro.api.spec.SolveOutcome` per line out, with the PR 9
``{"op": "health"}`` / ``{"op": "metrics"}`` control lines answered in
place.  Three kinds are supported behind one :class:`Backend` record:

* **in-process** — a :class:`~repro.service.scheduler.SolveService`
  served by a :class:`~repro.service.transports.TcpTransport` daemon
  thread in this process.  Still real TCP and the real ``serve_stream``
  loop; this is what tests and the benchmark use, and what ``kill()``
  turns into a realistic connection-refused crash.
* **subprocess** — ``python -m repro.cli serve --transport tcp --port 0``
  spawned as a child process; the ephemeral port is learned from the
  machine-readable ``{"listening": …}`` startup line (PR 10 satellite).
* **attached** — a remote ``host:port`` someone else runs; supervised
  (probed, marked down/up) but never spawned or respawned by us.

Supervision is deliberately simple and deterministic: a probe sends one
``{"op": "health"}`` control line and expects one JSON reply.  A failed
probe (or a failure reported by the router) marks the backend *down*;
managed backends are then respawned under the PR 6
:class:`~repro.service.resilience.RetryPolicy` — bounded attempts with
the policy's deterministic backoff schedule — and marked back *up* on
the first successful probe of the replacement.  Tests drive this with
:meth:`BackendPool.probe_once`; the CLI runs the same logic on a
background thread.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import repro
from repro.obs.metrics import MetricsRegistry
from repro.service.resilience import RetryPolicy
from repro.service.scheduler import SolveService
from repro.service.transports import TcpTransport, request_lines_over_tcp

__all__ = [
    "Backend",
    "BackendPool",
    "InProcessBackend",
    "SubprocessBackend",
    "probe_health",
]

_HEALTH_LINE = json.dumps({"op": "health"}, sort_keys=True)


def probe_health(
    host: str, port: int, timeout: float = 5.0
) -> Optional[Dict[str, object]]:
    """Send one ``{"op": "health"}`` line; the reply dict, or None if dead.

    Any transport failure (refused, reset, timeout, malformed reply) is a
    *down* verdict — the prober does not distinguish, the respawn logic
    retries either way.
    """
    try:
        replies = request_lines_over_tcp(host, port, [_HEALTH_LINE], timeout=timeout)
        if not replies:
            return None
        payload = json.loads(replies[0])
    except (OSError, ValueError):
        return None
    return payload if isinstance(payload, dict) else None


class InProcessBackend:
    """A ``SolveService`` + ``TcpTransport`` pair living in this process.

    ``start()`` builds the service from the stored kwargs and serves it on
    an ephemeral port; ``kill()`` tears both down abruptly (no drain) so
    in-flight and subsequent connections fail like a crashed process.  A
    fresh ``start()`` after ``kill()`` is a respawn: new service, new
    sessions (cold shard), new port.
    """

    kind = "in-process"

    def __init__(self, host: str = "127.0.0.1", **service_kwargs: object) -> None:
        self.host = host
        self.service_kwargs = dict(service_kwargs)
        self.service: Optional[SolveService] = None
        self.transport: Optional[TcpTransport] = None

    def start(self) -> Tuple[str, int]:
        if self.service is not None:
            raise RuntimeError("backend already started")
        self.service = SolveService(**self.service_kwargs)  # type: ignore[arg-type]
        self.transport = TcpTransport(host=self.host, port=0)
        return self.transport.start(self.service)

    def kill(self) -> None:
        transport, service = self.transport, self.service
        self.transport = self.service = None
        if transport is not None:
            transport.close(drain=False, timeout=1.0)
        if service is not None:
            service.close(wait=False)

    def alive(self) -> bool:
        return self.transport is not None


class SubprocessBackend:
    """A ``repro.cli serve --transport tcp --port 0`` child process.

    ``serve_args`` is appended to the fixed argv prefix, so admission and
    deadline flags (``--workers``, ``--max-inflight``, ``--deadline-default``,
    …) thread straight through from the ``cluster`` CLI.  The child's
    stdout is read until the machine-readable ``{"listening": …}`` line
    reveals the bound port; stderr is inherited so crashes stay visible
    in CI logs.
    """

    kind = "subprocess"

    def __init__(
        self,
        serve_args: Sequence[str] = (),
        host: str = "127.0.0.1",
        startup_timeout_s: float = 30.0,
    ) -> None:
        self.host = host
        self.serve_args = list(serve_args)
        self.startup_timeout_s = startup_timeout_s
        self.process: Optional[subprocess.Popen] = None

    def _argv(self) -> List[str]:
        return [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--transport",
            "tcp",
            "--host",
            self.host,
            "--port",
            "0",
            *self.serve_args,
        ]

    def _env(self) -> Dict[str, str]:
        env = dict(os.environ)
        # Make ``repro`` importable in the child even when the parent found
        # it through a hand-edited sys.path or an odd cwd: prepend the
        # directory that holds the package.
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            package_root if not existing else package_root + os.pathsep + existing
        )
        return env

    def start(self) -> Tuple[str, int]:
        if self.process is not None:
            raise RuntimeError("backend already started")
        process = subprocess.Popen(
            self._argv(),
            stdout=subprocess.PIPE,
            stderr=None,
            env=self._env(),
            text=True,
        )
        deadline = time.monotonic() + self.startup_timeout_s
        try:
            while True:
                if process.poll() is not None:
                    raise RuntimeError(
                        f"backend exited with code {process.returncode} "
                        "before announcing its port"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError("timed out waiting for the listening line")
                line = process.stdout.readline()  # type: ignore[union-attr]
                if not line:
                    continue
                try:
                    payload = json.loads(line)
                except ValueError:
                    continue
                listening = (
                    payload.get("listening") if isinstance(payload, dict) else None
                )
                if isinstance(listening, dict):
                    self.process = process
                    return str(listening["host"]), int(listening["port"])
        except Exception:
            process.kill()
            process.wait()
            raise

    def kill(self) -> None:
        process = self.process
        self.process = None
        if process is not None:
            process.kill()
            process.wait()

    def alive(self) -> bool:
        return self.process is not None and self.process.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid if self.process is not None else None


class Backend:
    """One supervised pool member: identity, address, status, history."""

    def __init__(
        self,
        backend_id: str,
        host: str,
        port: int,
        launcher: Optional[object] = None,
    ) -> None:
        self.backend_id = backend_id
        self.host = host
        self.port = port
        #: The managed launcher (:class:`InProcessBackend` /
        #: :class:`SubprocessBackend`), or ``None`` for attached remotes.
        self.launcher = launcher
        self.status = "up"
        self.restarts = 0
        self.failed_respawns = 0
        self.last_health: Optional[Dict[str, object]] = None

    @property
    def managed(self) -> bool:
        return self.launcher is not None

    @property
    def kind(self) -> str:
        return getattr(self.launcher, "kind", "attached")

    @property
    def address(self) -> Tuple[str, int]:
        return (self.host, self.port)

    def describe(self) -> Dict[str, object]:
        return {
            "id": self.backend_id,
            "kind": self.kind,
            "host": self.host,
            "port": self.port,
            "status": self.status,
            "restarts": self.restarts,
            "failed_respawns": self.failed_respawns,
            "pid": getattr(self.launcher, "pid", None),
        }


class BackendPool:
    """The supervised set of backends the router routes over.

    Thread-safe.  Probing can run synchronously (:meth:`probe_once`, what
    tests call) or on a background thread (:meth:`start` /
    :meth:`close`).  The pool never edits ring membership — a down
    backend stays a member and simply stops receiving traffic until its
    respawn is marked up, which is what keeps shard ownership (and
    session warmth everywhere else) stable across a crash.

    The supervision counters (``cluster.respawns``, ``cluster.markdowns``,
    ``cluster.backends_up``) live in the pool's :attr:`metrics` registry,
    which the router reports into too, so they reach the cluster scrape.
    """

    def __init__(
        self,
        probe_interval_s: float = 1.0,
        probe_timeout_s: float = 5.0,
        retry_policy: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.probe_interval_s = probe_interval_s
        self.probe_timeout_s = probe_timeout_s
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        self.metrics = MetricsRegistry()
        self._sleep = sleep
        self._lock = threading.RLock()
        self._backends: Dict[str, Backend] = {}
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._respawn_counter = self.metrics.counter("cluster.respawns")
        self._markdown_counter = self.metrics.counter("cluster.markdowns")
        self._up_gauge = self.metrics.gauge("cluster.backends_up")

    # -- membership ---------------------------------------------------

    def add_managed(self, backend_id: str, launcher) -> Backend:
        """Start ``launcher`` and register it under ``backend_id``."""
        host, port = launcher.start()
        return self._register(Backend(backend_id, host, port, launcher))

    def attach(self, backend_id: str, host: str, port: int) -> Backend:
        """Register an externally-run backend; supervised but not spawned."""
        return self._register(Backend(backend_id, host, int(port)))

    def _register(self, backend: Backend) -> Backend:
        with self._lock:
            if backend.backend_id in self._backends:
                raise ValueError(f"backend {backend.backend_id!r} already in pool")
            self._backends[backend.backend_id] = backend
            self._refresh_up_gauge()
        return backend

    def ids(self) -> Tuple[str, ...]:
        with self._lock:
            return tuple(sorted(self._backends))

    def get(self, backend_id: str) -> Backend:
        with self._lock:
            return self._backends[backend_id]

    def address_of(self, backend_id: str) -> Tuple[str, int]:
        with self._lock:
            return self._backends[backend_id].address

    def is_up(self, backend_id: str) -> bool:
        with self._lock:
            backend = self._backends.get(backend_id)
            return backend is not None and backend.status == "up"

    # -- status transitions -------------------------------------------

    def report_failure(self, backend_id: str) -> None:
        """Router-observed transport failure: mark down immediately.

        The next probe cycle (background or :meth:`probe_once`) verifies
        and, for managed backends, respawns.
        """
        with self._lock:
            backend = self._backends.get(backend_id)
            if backend is not None and backend.status == "up":
                backend.status = "down"
                self._markdown_counter.inc()
                self._refresh_up_gauge()

    def kill(self, backend_id: str) -> None:
        """Abruptly kill a managed backend (fault injection for tests)."""
        with self._lock:
            backend = self._backends[backend_id]
        if backend.launcher is not None:
            backend.launcher.kill()

    def _refresh_up_gauge(self) -> None:
        self._up_gauge.set(
            sum(1 for b in self._backends.values() if b.status == "up")
        )

    # -- probing / respawn --------------------------------------------

    def probe_once(self) -> Dict[str, str]:
        """Probe every backend once; respawn dead managed ones.

        Returns the post-probe status map — the synchronous seam the
        failover tests drive instead of sleeping on the daemon thread.
        """
        with self._lock:
            backends = list(self._backends.values())
        for backend in backends:
            health = probe_health(
                backend.host, backend.port, timeout=self.probe_timeout_s
            )
            if health is not None:
                with self._lock:
                    if backend.status != "up":
                        backend.status = "up"
                    backend.last_health = health
                    self._refresh_up_gauge()
                continue
            with self._lock:
                if backend.status == "up":
                    backend.status = "down"
                    self._markdown_counter.inc()
                backend.last_health = None
                self._refresh_up_gauge()
            if backend.managed:
                self._respawn(backend)
        with self._lock:
            return {b.backend_id: b.status for b in self._backends.values()}

    def _respawn(self, backend: Backend) -> None:
        """Relaunch a dead managed backend under the retry policy."""
        launcher = backend.launcher
        assert launcher is not None
        launcher.kill()  # reap whatever is left before relaunching
        policy = self.retry_policy
        for attempt in range(policy.max_attempts):
            if self._stop.is_set():
                return
            try:
                host, port = launcher.start()
            except Exception:
                backend.failed_respawns += 1
                self._sleep(policy.delay(attempt))
                continue
            if probe_health(host, port, timeout=self.probe_timeout_s) is None:
                launcher.kill()
                backend.failed_respawns += 1
                self._sleep(policy.delay(attempt))
                continue
            with self._lock:
                backend.host, backend.port = host, port
                backend.status = "up"
                backend.restarts += 1
                self._respawn_counter.inc()
                self._refresh_up_gauge()
            return

    def _probe_loop(self) -> None:
        while not self._stop.wait(self.probe_interval_s):
            try:
                self.probe_once()
            except Exception:  # pragma: no cover - supervision must not die
                pass

    def start(self) -> None:
        """Start the background probe thread (idempotent)."""
        with self._lock:
            if self._thread is not None:
                return
            self._stop.clear()
            self._thread = threading.Thread(
                target=self._probe_loop, name="cluster-prober", daemon=True
            )
            self._thread.start()

    def close(self, kill_managed: bool = True) -> None:
        """Stop probing; optionally tear down every managed backend."""
        self._stop.set()
        thread = self._thread
        self._thread = None
        if thread is not None:
            thread.join(timeout=5.0)
        if kill_managed:
            with self._lock:
                backends = list(self._backends.values())
            for backend in backends:
                if backend.launcher is not None:
                    backend.launcher.kill()
                backend.status = "down"
            with self._lock:
                self._refresh_up_gauge()

    # -- introspection ------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready supervision view: per-backend status and counters."""
        with self._lock:
            backends = {
                b.backend_id: b.describe() for b in self._backends.values()
            }
            up = sum(1 for b in self._backends.values() if b.status == "up")
        return {
            "backends": backends,
            "up": up,
            "total": len(backends),
            "probe_interval_s": self.probe_interval_s,
        }
