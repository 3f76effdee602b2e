"""The resilience layer: deadlines, retries, admission control, taxonomy.

PRs 4–5 built the serving stack that exploits the paper's reuse property
(warm sessions, memoisation, the result store, a process pool, TCP
transport) — but none of it had a failure story: a hung solve blocked its
session lock forever, a crashed process-pool worker poisoned the executor,
and an overloaded queue accepted work until memory died.  This module
collects the primitives that give every serving layer one:

* the **error taxonomy** — every failed
  :class:`~repro.api.spec.SolveOutcome` carries a structured ``error_kind``
  (one of :data:`~repro.api.spec.ERROR_KINDS`) plus a ``retryable`` flag,
  so clients can retry intelligently instead of pattern-matching error
  strings;
* :class:`RetryPolicy` — a bounded, **deterministic** (jitter-free)
  exponential-backoff schedule used by the scheduler when it re-dispatches
  jobs after a worker crash.  Determinism is deliberate: the chaos tests
  assert exact schedules, and reproducibility is the repo's north star;
* :class:`AdmissionControl` — the bounded admission queue behind
  ``SolveService(max_inflight=..., max_queue_depth=...)``: load beyond the
  bound is shed with a fast structured ``overloaded`` outcome instead of
  being accepted into an unbounded queue, and :meth:`AdmissionControl.wait_idle`
  is what makes a graceful drain observable;
* the :class:`ResilienceError` hierarchy (:class:`DeadlineExceeded`,
  :class:`Overloaded`, :class:`WorkerCrashed`) — exceptions that know
  their own taxonomy entry, so the serving boundary can turn them into
  correctly-classified outcomes without a lookup table.

The deterministic fault-injection points that *prove* this layer live in
:mod:`repro.service.faults`; ``tests/test_resilience.py`` is the chaos
suite.  See ``docs/ARCHITECTURE.md`` ("Resilience layer") for the
invariants.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.api.spec import ERROR_KINDS
from repro.utils.errors import ReproError

__all__ = [
    "ERROR_KINDS",
    "AdmissionControl",
    "DeadlineExceeded",
    "Overloaded",
    "ResilienceError",
    "RetryPolicy",
    "WorkerCrashed",
    "classify_exception",
    "failure_message",
    "remaining_deadline",
]


# ---------------------------------------------------------------------------
# Exceptions that know their taxonomy entry
# ---------------------------------------------------------------------------
class ResilienceError(ReproError):
    """A serving failure with a structured taxonomy entry.

    Subclasses fix :attr:`kind` (one of :data:`ERROR_KINDS`) and
    :attr:`retryable`; the serving boundary copies both onto the failed
    :class:`~repro.api.spec.SolveOutcome` it returns.
    """

    kind: str = "internal"
    retryable: bool = False


class DeadlineExceeded(ResilienceError):
    """A request ran past its deadline (in queue or in dispatch)."""

    kind = "timeout"
    retryable = True


class Overloaded(ResilienceError):
    """The admission queue is full (or the service is draining)."""

    kind = "overloaded"
    retryable = True


class WorkerCrashed(ResilienceError):
    """A process-pool worker died and retries were exhausted."""

    kind = "worker_crash"
    retryable = True


def classify_exception(exc: BaseException) -> Tuple[str, bool]:
    """Map an exception to its ``(error_kind, retryable)`` taxonomy entry.

    :class:`ResilienceError` subclasses carry their own entry; any other
    :class:`~repro.utils.errors.ReproError` is a malformed or unservable
    *request* (``invalid``, not retryable — re-sending the same spec cannot
    succeed); everything else is an ``internal`` fault.
    """
    if isinstance(exc, ResilienceError):
        return exc.kind, exc.retryable
    if isinstance(exc, ReproError):
        return "invalid", False
    return "internal", False


def failure_message(exc: BaseException) -> str:
    """The ``error`` text of a failed outcome: a request fault's own
    message, or an ``internal error:`` line naming the exception type."""
    if isinstance(exc, ReproError):
        return str(exc)
    return f"internal error: {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Deadlines
# ---------------------------------------------------------------------------
def remaining_deadline(
    deadline_s: Optional[float], submitted: float, now: Optional[float] = None
) -> Optional[float]:
    """Seconds left of a deadline anchored at ``submitted``, or ``None``.

    Deadlines are measured from *submission* (the moment the service
    admitted the request), so time spent waiting in the queue counts — a
    request can expire before it ever dispatches, which is exactly the
    queue-side enforcement point.  Returns a non-positive number once
    expired (callers raise :class:`DeadlineExceeded`), and at most
    ``threading.TIMEOUT_MAX`` (~292 years), the longest wait a future
    accepts.
    """
    if deadline_s is None:
        return None
    elapsed = (now if now is not None else time.perf_counter()) - submitted
    return min(deadline_s - elapsed, threading.TIMEOUT_MAX)


# ---------------------------------------------------------------------------
# Retry policy
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """A bounded, deterministic exponential-backoff retry schedule.

    ``max_attempts`` bounds the total tries (first dispatch included);
    attempt ``i`` (zero-based) is preceded by a sleep of
    ``min(base_delay_s * backoff**(i - 1), max_delay_s)`` — no jitter, so
    the schedule is a pure function of the policy and the chaos tests can
    assert it exactly.  ``RetryPolicy(max_attempts=1)`` disables retries.
    """

    max_attempts: int = 3
    base_delay_s: float = 0.05
    backoff: float = 2.0
    max_delay_s: float = 1.0

    def __post_init__(self) -> None:
        if not isinstance(self.max_attempts, int) or self.max_attempts < 1:
            raise ValueError(f"max_attempts must be an integer >= 1, got {self.max_attempts!r}")
        if self.base_delay_s < 0:
            raise ValueError(f"base_delay_s must be >= 0, got {self.base_delay_s!r}")
        if self.backoff < 1.0:
            raise ValueError(f"backoff must be >= 1, got {self.backoff!r}")
        if self.max_delay_s < 0:
            raise ValueError(f"max_delay_s must be >= 0, got {self.max_delay_s!r}")

    def delay(self, attempt: int) -> float:
        """The sleep *before* retry ``attempt`` (1-based retries; 0 = first try)."""
        if attempt <= 0:
            return 0.0
        return min(self.base_delay_s * (self.backoff ** (attempt - 1)), self.max_delay_s)

    def schedule(self) -> Tuple[float, ...]:
        """Every sleep of the policy, in order (``max_attempts - 1`` entries)."""
        return tuple(self.delay(attempt) for attempt in range(1, self.max_attempts))


# ---------------------------------------------------------------------------
# Admission control
# ---------------------------------------------------------------------------
class AdmissionControl:
    """A bounded admission counter: executing + queued requests, shed beyond.

    The admission window is ``max_inflight + max_queue_depth`` requests:
    ``max_inflight`` (defaulting to the worker count — more cannot actually
    execute) bounds concurrently *executing* solves and ``max_queue_depth``
    the requests allowed to wait behind them.  With ``max_queue_depth=None``
    (the default) admission is unbounded — exactly the pre-resilience
    behaviour, so existing callers see no change unless they opt in.

    Admission is an atomic counter check, not a lock held across solves:
    :meth:`try_admit` either reserves slots for a whole group or refuses it
    (all-or-nothing — admitting half a batch would break the batching
    layer's ordering contract).  :meth:`wait_idle` blocks until every
    admitted request finished — the drain primitive.
    """

    def __init__(
        self,
        workers: int,
        max_inflight: Optional[int] = None,
        max_queue_depth: Optional[int] = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight!r}")
        if max_queue_depth is not None and max_queue_depth < 0:
            raise ValueError(f"max_queue_depth must be >= 0, got {max_queue_depth!r}")
        self.max_inflight = max_inflight if max_inflight is not None else workers
        self.max_queue_depth = max_queue_depth
        self._admitted = 0
        self._executing = 0
        self._cond = threading.Condition()

    @property
    def bounded(self) -> bool:
        """Whether admission can shed load at all."""
        return self.max_queue_depth is not None

    def limit(self) -> Optional[int]:
        """The admission window size, or ``None`` when unbounded."""
        if self.max_queue_depth is None:
            return None
        return self.max_inflight + self.max_queue_depth

    def try_admit(self, count: int = 1) -> bool:
        """Reserve ``count`` slots atomically; ``False`` sheds the request(s)."""
        with self._cond:
            limit = self.limit()
            if limit is not None and self._admitted + count > limit:
                return False
            self._admitted += count
            return True

    def start(self, count: int = 1) -> None:
        """Mark ``count`` admitted request(s) as executing (queued -> running)."""
        with self._cond:
            self._executing += count

    def finish(self, count: int = 1) -> None:
        """Release ``count`` finished request(s) (and wake drain waiters)."""
        with self._cond:
            self._executing -= count
            self._admitted -= count
            if self._admitted <= 0:
                self._cond.notify_all()

    def wait_idle(self, timeout: Optional[float] = None) -> bool:
        """Block until every admitted request finished; ``False`` on timeout."""
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._cond:
            while self._admitted > 0:
                remaining = None if deadline is None else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    return False
                self._cond.wait(remaining)
            return True

    def snapshot(self) -> Dict[str, object]:
        """Queue-depth gauges for :meth:`SolveService.health`."""
        with self._cond:
            return {
                "admitted": self._admitted,
                "executing": self._executing,
                "queued": self._admitted - self._executing,
                "max_inflight": self.max_inflight,
                "max_queue_depth": self.max_queue_depth,
            }
