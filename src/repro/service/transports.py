"""Pluggable serve-loop transports: stdio and TCP, one shared line protocol.

A transport's only job is to move JSON lines between clients and a
:class:`~repro.service.scheduler.SolveService`; the framing, pipelining and
ordering logic lives in one place (:func:`serve_stream`) and the payload
codec lives in :mod:`repro.service.protocol` — both are reused unchanged by
every transport, so adding one (a UNIX socket, a pipe pair) is a transport
class, not a protocol fork:

* :class:`StdioTransport` — the classic ``repro-atr serve`` loop: one JSON
  request per stdin line, one JSON response per stdout line, until EOF;
* :class:`TcpTransport` — a threading TCP server speaking the identical
  JSON-lines protocol per connection; concurrent connections share the one
  service (and therefore its warm sessions and result store).

Both preserve the contract the stdio loop always had: responses come back
in request order per stream, malformed lines produce ``ok=false`` responses
in place, and ``#`` comments / blank lines are skipped.
"""

from __future__ import annotations

import json
import logging
import socket
import socketserver
import sys
import threading
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.service.protocol import (
    ProtocolError,
    parse_control_line,
    parse_request_line,
)
from repro.api.spec import SolveOutcome
from repro.service.scheduler import SolveService

logger = logging.getLogger(__name__)

__all__ = [
    "Transport",
    "StdioTransport",
    "TcpTransport",
    "request_lines_over_tcp",
    "serve_stream",
]


def serve_stream(
    service: SolveService,
    lines: Iterable[str],
    write: Callable[[str], None],
    id_prefix: str = "line",
) -> int:
    """The shared serve loop: pipelined JSON lines, responses in input order.

    Requests are submitted as soon as they parse (the pool works ahead)
    while completed responses drain in submission order.  Draining is
    *eager*: a completion callback flushes ready responses the moment the
    head-of-line future finishes, even while the loop is blocked reading
    the next input line — so a client may hold the connection open and
    await each reply before sending its next request (the cluster
    router's pooled persistent connections do exactly this).  A parse
    failure flushes everything in flight first, so its ``ok=false``
    response still lands in the right place.  Control lines
    (``{"op": "health"}``, ``{"op": "metrics"}``) are answered in place,
    outside the solve-request count.  Returns the number of requests seen.

    A client that vanishes mid-stream (reset, half-close, broken pipe)
    does not raise out of the loop: reading stops, writes become no-ops,
    and everything already submitted still drains so the service's
    admission accounting completes — one flaky client can neither kill a
    transport's serve loop nor leak admitted work.
    """
    count = 0
    pending: deque = deque()
    client_gone = False
    # Writes happen from this loop *and* from completion callbacks on
    # worker threads; the lock keeps lines whole and in pending order.
    lock = threading.RLock()

    def _write(line: str) -> None:
        nonlocal client_gone
        with lock:
            if client_gone:
                return
            try:
                write(line)
            except OSError:
                client_gone = True

    def _pump(_future=None) -> None:
        # Flush, in submission order, every head-of-line response whose
        # future is already done.  Runs inline and as a done-callback.
        with lock:
            while pending and pending[0].done():
                _write(pending.popleft().result().to_json_line())

    def _drain(block: bool) -> None:
        _pump()
        while block:
            with lock:
                head = pending[0] if pending else None
            if head is None:
                return
            head.result()  # wait off-lock; whoever pumps next writes it
            _pump()

    def _error_line(line_number: int, exc: ProtocolError) -> None:
        # Keep input order: flush everything in flight, then report.
        _drain(block=True)
        _write(
            SolveOutcome(
                request_id=f"{id_prefix}-{line_number}",
                ok=False,
                error=str(exc),
                error_kind="invalid",
                retryable=False,
            ).to_json_line()
        )

    try:
        for line_number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if client_gone:
                break
            try:
                control = parse_control_line(line)
            except ProtocolError as exc:
                _error_line(line_number, exc)
                continue
            if control is not None:
                op, _payload = control
                _drain(block=True)  # control responses keep input order too
                body = (
                    service.metrics_snapshot()
                    if op == "metrics"
                    else service.health()
                )
                _write(json.dumps({"op": op, **body}, sort_keys=True))
                continue
            count += 1
            try:
                spec = parse_request_line(line, f"{id_prefix}-{line_number}")
            except ProtocolError as exc:
                _error_line(line_number, exc)
                continue
            try:
                future = service.submit(spec)
            except RuntimeError:
                break  # service closed under us (shutdown race): stop reading
            with lock:
                pending.append(future)
            future.add_done_callback(_pump)
    except OSError:
        client_gone = True  # the *read* side died mid-stream
    _drain(block=True)
    return count


class Transport:
    """Interface: carry JSON-lines requests to a service and responses back.

    ``serve(service)`` blocks until the transport's input is exhausted (or
    the transport is closed) and returns the number of requests served.
    """

    def serve(self, service: SolveService) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class StdioTransport(Transport):
    """One JSON request per stdin line, one JSON response per stdout line."""

    def __init__(self, stdin=None, stdout=None) -> None:
        self._stdin = stdin
        self._stdout = stdout

    def serve(self, service: SolveService) -> int:
        stdin = self._stdin if self._stdin is not None else sys.stdin
        stdout = self._stdout if self._stdout is not None else sys.stdout

        def _write(line: str) -> None:
            print(line, file=stdout, flush=True)

        return serve_stream(service, stdin, _write)


class _LineHandler(socketserver.StreamRequestHandler):
    """One client connection: the stdio loop over a socket stream."""

    def handle(self) -> None:  # pragma: no cover - exercised via TcpTransport
        server: "_LineServer" = self.server  # type: ignore[assignment]
        server.track_handler(threading.current_thread(), self.connection)

        def _lines():
            for raw in self.rfile:
                yield raw.decode("utf-8", errors="replace")

        def _write(line: str) -> None:
            self.wfile.write(line.encode("utf-8") + b"\n")
            self.wfile.flush()

        try:
            # serve_stream absorbs mid-stream disconnects itself; anything
            # still escaping (a reset between streams, a half-open socket
            # torn down during setup) must not kill the serve loop either.
            served = serve_stream(server.service, _lines(), _write)
        except OSError:
            return  # client went away; nothing left to answer
        finally:
            server.untrack_handler(threading.current_thread())
        with server.count_lock:
            server.served += served


class _LineServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address: Tuple[str, int], service: SolveService) -> None:
        super().__init__(address, _LineHandler)
        self.service = service
        self.served = 0
        self.count_lock = threading.Lock()
        # ThreadingTCPServer does not track daemon handler threads; the
        # transport's close() needs the live ones to drain (and to *name*
        # the leak when one refuses to die), and their sockets to cut them
        # off.
        self._handlers: Dict[threading.Thread, socket.socket] = {}
        self._handlers_lock = threading.Lock()

    def track_handler(self, thread: threading.Thread, conn: socket.socket) -> None:
        with self._handlers_lock:
            self._handlers[thread] = conn

    def untrack_handler(self, thread: threading.Thread) -> None:
        with self._handlers_lock:
            self._handlers.pop(thread, None)

    def live_handlers(self) -> List[threading.Thread]:
        with self._handlers_lock:
            return [thread for thread in self._handlers if thread.is_alive()]

    def cut_connections(self) -> None:
        """Shut every live connection down: its client reads EOF at once,
        and a reply its handler still writes fails instead of arriving."""
        with self._handlers_lock:
            conns = list(self._handlers.values())
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already closed by its client


class TcpTransport(Transport):
    """JSON lines over TCP; every connection gets the stdio loop's semantics.

    ``port=0`` binds an ephemeral port (the bound address is available as
    :attr:`address` once serving starts — used by the tests and the CI
    smoke job).  ``serve`` blocks until :meth:`close` or ``Ctrl-C``;
    :meth:`start` serves from a background thread for in-process embedding::

        transport = TcpTransport(port=0)
        host, port = transport.start(service)
        ... connect, send request lines, read response lines ...
        transport.close()
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.host = host
        self.port = port
        self._server: Optional[_LineServer] = None
        self._thread: Optional[threading.Thread] = None

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` (valid once serving has started)."""
        if self._server is None:
            raise RuntimeError("transport is not serving")
        host, port = self._server.server_address[:2]
        return str(host), int(port)

    @property
    def bound_port(self) -> int:
        """The actual bound port — resolves ``port=0`` to the ephemeral
        port the OS picked (valid once serving has started).  The cluster
        backend spawner and tests read this instead of parsing
        :attr:`address`."""
        return self.address[1]

    def _bind(self, service: SolveService) -> "_LineServer":
        if self._server is not None:
            raise RuntimeError("transport is already serving")
        self._server = _LineServer((self.host, self.port), service)
        return self._server

    def serve(
        self,
        service: SolveService,
        ready: Optional[Callable[[Tuple[str, int]], None]] = None,
    ) -> int:
        """Serve until :meth:`close` (or KeyboardInterrupt); returns requests served.

        ``ready`` is called with the bound ``(host, port)`` once the socket
        is listening — the CLI uses it to announce the ephemeral port.
        """
        server = self._bind(service)
        if ready is not None:
            ready(self.address)
        try:
            server.serve_forever(poll_interval=0.1)
        except KeyboardInterrupt:  # pragma: no cover - interactive only
            pass
        finally:
            server.server_close()
        return server.served

    def start(self, service: SolveService) -> Tuple[str, int]:
        """Serve from a background thread; returns the bound ``(host, port)``."""
        server = self._bind(service)
        self._thread = threading.Thread(
            target=server.serve_forever, kwargs={"poll_interval": 0.1}, daemon=True
        )
        self._thread.start()
        return self.address

    def close(self, drain: bool = False, timeout: float = 5.0) -> List[str]:
        """Stop serving and release the socket (idempotent).

        ``drain=True`` waits up to ``timeout`` seconds for in-flight
        connections to finish their streams before releasing the socket —
        the graceful half of a shutdown (pair it with
        :meth:`SolveService.drain` to also wait out the executor).
        ``drain=False`` shuts the live connections down at once, so their
        in-flight requests fail like a crashed process's: the client reads
        EOF and no reply still being computed reaches it.

        Returns the names of any threads that failed to join within
        ``timeout`` (also logged as warnings) — a stuck handler is a
        *reported* leak now, never a silently dropped handle.
        """
        server, self._server = self._server, None
        leaked: List[str] = []
        if server is not None:
            server.shutdown()  # stop accepting; serve_forever returns
            handlers = server.live_handlers()
            if drain:
                deadline = time.monotonic() + timeout
                for handler in handlers:
                    handler.join(max(0.0, deadline - time.monotonic()))
            else:
                server.cut_connections()
            leaked.extend(
                handler.name for handler in handlers if handler.is_alive()
            )
            server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            if self._thread.is_alive():
                leaked.append(self._thread.name)
            self._thread = None
        if leaked:
            logger.warning(
                "TcpTransport.close: %d thread(s) failed to join within %.1fs: %s",
                len(leaked),
                timeout,
                ", ".join(leaked),
            )
        return leaked


def request_lines_over_tcp(
    host: str, port: int, lines: Iterable[str], timeout: float = 60.0
) -> list:
    """Tiny line-protocol client: send request lines, return response lines.

    Used by the tests, the CI smoke job and the benchmark's transport grid;
    sends everything, half-closes the write side, then reads until EOF —
    the server answers one response line per non-comment request line, in
    order.
    """
    payload = "".join(line.rstrip("\n") + "\n" for line in lines)
    with socket.create_connection((host, port), timeout=timeout) as conn:
        conn.sendall(payload.encode("utf-8"))
        conn.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = conn.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    return b"".join(chunks).decode("utf-8").splitlines()
