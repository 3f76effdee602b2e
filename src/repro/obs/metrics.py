"""Thread-safe metrics: counters, gauges and fixed-bucket histograms.

The unit of ownership is a :class:`MetricsRegistry` — a named, lazily
created family of metrics.  The serving stack keeps **one registry per
service instance** (so two services in one process never share counters,
which the per-instance ``stats()`` tests rely on), while the CLI's
``serve --metrics`` flag additionally arms a **process-global default
registry** (:func:`set_default_registry`) that low-level hooks — the peel
kernel, graph resolution, the experiment harness — report into when, and
only when, it is armed.  :func:`default_registry` returns ``None`` when
nothing is armed, so the disabled path costs a single global read.

Histograms are fixed-bucket: an observation lands in the first bucket
whose upper bound contains it, and quantiles are estimated by linear
interpolation inside the covering bucket (clamped to the observed
min/max).  That makes ``observe()`` O(#buckets) with no allocation and the
snapshot mergeable across processes — the trade is quantile resolution,
which the bucket layout bounds.

Everything here is stdlib-only; the rest of ``repro`` may import this
module freely without cycles.  ``tests/test_obs.py`` hammers the registry
from 8 threads and checks the bucket quantiles against a sorted-array
reference.
"""

from __future__ import annotations

import bisect
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: The one latency clock: every histogram observation, span timestamp and
#: ``Timer`` in the repo reads this, so offline tables and live metrics
#: share a single definition of elapsed time.
now = time.perf_counter

#: Upper bounds (seconds) for latency histograms: 100 µs .. 60 s, roughly
#: logarithmic.  Observations above the last bound land in an implicit
#: overflow bucket.
DEFAULT_LATENCY_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    30.0,
    60.0,
)

#: Upper bounds for size-like histograms (dirty-closure edge counts, batch
#: sizes): 1 .. 100k, roughly logarithmic.
SIZE_BUCKETS: Tuple[float, ...] = (
    1.0,
    2.0,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
    250.0,
    500.0,
    1000.0,
    2500.0,
    5000.0,
    10000.0,
    25000.0,
    50000.0,
    100000.0,
)


class Counter:
    """A monotonically increasing integer with its own lock."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        with self._lock:
            return self._value


class Gauge:
    """A point-in-time numeric value (set or adjusted, never aggregated)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        with self._lock:
            return self._value


class Histogram:
    """Fixed-bucket histogram with quantile estimation.

    ``buckets`` is the sorted tuple of inclusive upper bounds; one implicit
    overflow bucket catches everything above the last bound.  ``observe``
    is a bisect plus a few adds under one lock; :meth:`quantile`
    interpolates linearly inside the covering bucket and clamps the answer
    to the observed min/max so a single observation reports itself exactly.
    """

    __slots__ = ("name", "bounds", "_counts", "_count", "_sum", "_min", "_max", "_lock")

    def __init__(
        self, name: str, buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS
    ) -> None:
        bounds = tuple(float(b) for b in buckets)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise ValueError("histogram buckets must be sorted, unique and non-empty")
        self.name = name
        self.bounds = bounds
        self._counts = [0] * (len(bounds) + 1)
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        index = bisect.bisect_left(self.bounds, value)
        with self._lock:
            self._counts[index] += 1
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value

    @contextmanager
    def time(self) -> Iterator[None]:
        """Observe the wall time of the ``with`` body."""
        start = now()
        try:
            yield
        finally:
            self.observe(now() - start)

    def quantile(self, q: float) -> float:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the buckets.

        Returns 0.0 for an empty histogram.  The estimate is exact at the
        bucket boundaries and linear inside a bucket; it is always clamped
        to the observed ``[min, max]``.
        """
        return quantile_from_snapshot(self._buckets(), q)

    def snapshot(self) -> Dict[str, object]:
        """One JSON-ready dict: count/sum/min/max, buckets, p50/p95/p99."""
        snapshot = self._buckets()
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99)):
            snapshot[name] = quantile_from_snapshot(snapshot, q)
        return snapshot

    def _buckets(self) -> Dict[str, object]:
        with self._lock:
            count = self._count
            total = self._sum
            lo = self._min
            hi = self._max
            counts = list(self._counts)
        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "buckets": [
                {"le": bound, "count": counts[i]} for i, bound in enumerate(self.bounds)
            ]
            + [{"le": "+Inf", "count": counts[-1]}],
        }


def quantile_from_snapshot(snapshot: Dict[str, object], q: float) -> float:
    """The ``q``-quantile of a histogram snapshot — one histogram's, or
    several merged — and the one estimator :meth:`Histogram.quantile` uses.

    Exact at the bucket boundaries, linear inside a bucket, clamped to the
    observed ``[min, max]``, 0.0 when empty.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = int(snapshot.get("count", 0))  # type: ignore[call-overload]
    if count == 0:
        return 0.0
    buckets = list(snapshot["buckets"])  # type: ignore[call-overload]
    lo_seen = float(snapshot.get("min") or 0.0)  # type: ignore[arg-type]
    hi_seen = float(snapshot.get("max") or 0.0)  # type: ignore[arg-type]
    rank = q * count
    cumulative = 0
    for index, bucket in enumerate(buckets):
        bucket_count = int(bucket["count"])
        if bucket_count == 0:
            continue
        if cumulative + bucket_count >= rank:
            lower = float(buckets[index - 1]["le"]) if index > 0 else 0.0
            # The overflow bucket has no upper bound: the observed max is
            # the tightest honest cap.
            upper = hi_seen if bucket["le"] == "+Inf" else float(bucket["le"])
            fraction = (rank - cumulative) / bucket_count
            estimate = lower + (upper - lower) * max(0.0, min(1.0, fraction))
            return max(lo_seen, min(hi_seen, estimate))
        cumulative += bucket_count
    return hi_seen


class MetricsRegistry:
    """A named family of counters, gauges and histograms.

    ``counter``/``gauge``/``histogram`` are get-or-create and thread-safe;
    asking for an existing name with a different metric type raises.  The
    metric objects themselves are handed out once and then updated
    lock-free with respect to the registry (each metric has its own lock),
    so hot paths should hold onto the object rather than re-resolve the
    name per update.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    def _check_free(self, name: str, kind: str) -> None:
        for other_kind, table in (
            ("counter", self._counters),
            ("gauge", self._gauges),
            ("histogram", self._histograms),
        ):
            if other_kind != kind and name in table:
                raise ValueError(
                    f"metric {name!r} already registered as a {other_kind}"
                )

    def counter(self, name: str) -> Counter:
        """Get or create the counter called ``name``."""
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                self._check_free(name, "counter")
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge called ``name``."""
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                self._check_free(name, "gauge")
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(
        self, name: str, buckets: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Get or create the histogram called ``name``.

        ``buckets`` applies only on first creation (defaults to
        :data:`DEFAULT_LATENCY_BUCKETS`); later calls return the existing
        histogram regardless.
        """
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                self._check_free(name, "histogram")
                metric = self._histograms[name] = Histogram(
                    name, buckets if buckets is not None else DEFAULT_LATENCY_BUCKETS
                )
            return metric

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready snapshot of every metric in the registry."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
        return {
            "counters": {name: c.value for name, c in sorted(counters.items())},
            "gauges": {name: g.value for name, g in sorted(gauges.items())},
            "histograms": {
                name: h.snapshot() for name, h in sorted(histograms.items())
            },
        }

    def to_prometheus_text(self) -> str:
        """Render the registry in the Prometheus text exposition format."""
        return prometheus_from_snapshot(self.snapshot())


_default_lock = threading.Lock()
_default_registry: Optional[MetricsRegistry] = None


def set_default_registry(
    registry: Optional[MetricsRegistry],
) -> Optional[MetricsRegistry]:
    """Arm (or with ``None`` disarm) the process-global default registry.

    Returns the previous value so callers can restore it — the CLI's
    ``serve --metrics`` arms the service registry for the server's
    lifetime and restores on exit.
    """
    global _default_registry
    with _default_lock:
        previous = _default_registry
        _default_registry = registry
    return previous


def default_registry() -> Optional[MetricsRegistry]:
    """The armed process-global registry, or ``None`` when observability
    is off.  Read without a lock: hooks in hot paths (the peel kernel,
    graph resolution) pay one global load on the disabled path.
    """
    return _default_registry


def _prom_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    text = "".join(out)
    if text and text[0].isdigit():
        text = "_" + text
    return text


def prometheus_from_snapshot(snapshot: Dict[str, object]) -> str:
    """Render a :meth:`MetricsRegistry.snapshot` dict as Prometheus text.

    Metric names are sanitised (dots become underscores); histograms emit
    cumulative ``_bucket{le=...}`` series plus ``_sum`` and ``_count`` as
    the format requires.
    """
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {value}")
    for name, value in snapshot.get("gauges", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {value}")
    for name, hist in snapshot.get("histograms", {}).items():  # type: ignore[union-attr]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for bucket in hist["buckets"]:
            cumulative += bucket["count"]
            le = bucket["le"]
            label = "+Inf" if le == "+Inf" else repr(float(le))
            lines.append(f'{prom}_bucket{{le="{label}"}} {cumulative}')
        lines.append(f"{prom}_sum {hist['sum']}")
        lines.append(f"{prom}_count {hist['count']}")
    return "\n".join(lines) + ("\n" if lines else "")
