"""Per-layer metrics: the in-process tracer and the scrape diff.

The names reuse the program's own metric and span names, so a benchmark row
and a production scrape (``{"op": "metrics"}``) compare directly.  A span
named ``X`` becomes the metric ``X_s``, which holds its *self* time (its
duration minus the time covered by its child spans), summed over the
timed stream.  ``BENCHMARK.json`` lists the metrics a traced run prints;
``README.md`` gives each one's module and the end-to-end metric it should
move.
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, List, Optional, Sequence

#: Function spans the in-process tracer adds around public call sites.
_SPANS_TIMED = (
    "core.followers",
    "core.evaluate_anchor_set",
    "core.upward_route",
    "engine.solve_spec",
    "engine.incremental_peel",
    "engine.tree_rebuild",
    "engine.tree_patch",
    "graph.index_build",
)
_COUNTED_CALLS = ("core.followers", "core.evaluate_anchor_set")
#: ``extra.engine`` counters summed into the work counts and layer metrics.
ENGINE_COUNTERS = ("incremental_peels", "dirty_edges", "tree_patches", "tree_rebuilds")


def overhead_pct(untraced_rps: float, traced_rps: float) -> float:
    return 100.0 * (untraced_rps - traced_rps) / untraced_rps


def unattributed_pct(wall: Sequence[float], covered: Sequence[float]) -> float:
    total = sum(wall)
    return 100.0 * (total - sum(covered)) / total


# ---------------------------------------------------------------------------
# In-process: call-site wrappers, span self times, armed registry
# ---------------------------------------------------------------------------
class SelfTimer:
    """Self time per span name, kept with a stack as the spans close.

    ``repro.obs`` tracing keeps every span of a request as a dict under a
    lock; follower search alone opens ~230k spans per solve-large run, which
    made a traced run 25% slower and inflated the self time of every
    parent.  This recorder does O(1) work per span and keeps only totals.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        #: Time inside outermost spans (what the layers cover).
        self.root_s = 0.0
        self._open: List[float] = []

    def _close(self, name: str, duration: float) -> None:
        self.self_s[name] = self.self_s.get(name, 0.0) + duration - self._open.pop()
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._open:
            self._open[-1] += duration
        else:
            self.root_s += duration

    def span(self, name: str, **_fields: object) -> "_Span":
        """Drop-in for :func:`repro.obs.span` at a call site."""
        return _Span(self, name)

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a version timed as span ``name``."""
        inner = getattr(owner, attribute)
        clock = time.perf_counter
        opened = self._open
        close = self._close

        def wrapper(*args, **kwargs):
            opened.append(0.0)
            start = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                close(name, clock() - start)

        setattr(owner, attribute, wrapper)


class _Span:
    __slots__ = ("timer", "name", "start")

    def __init__(self, timer: SelfTimer, name: str) -> None:
        self.timer = timer
        self.name = name

    def __enter__(self) -> None:
        self.timer._open.append(0.0)
        self.start = time.perf_counter()

    def __exit__(self, *_exc: object) -> None:
        self.timer._close(self.name, time.perf_counter() - self.start)


class InProcessTracer:
    """Arms ``repro.obs`` and times the public functions at their call sites.

    Construct before any session exists.  The armed default registry makes
    the kernel and resolver hooks report; the engine's own spans
    (``engine.solve_spec``, ``engine.incremental_peel``, ...) report into a
    :class:`SelfTimer` that stands in for ``span`` in the engine module, and
    so do the wrapped public functions.
    """

    def __init__(self) -> None:
        from importlib import import_module

        from repro.core.component_tree import TrussComponentTree
        from repro.graph.index import GraphIndex
        from repro.obs import MetricsRegistry, now, set_default_registry

        self.registry = MetricsRegistry()
        set_default_registry(self.registry)
        self.timer = timer = SelfTimer()
        # The solver modules are shadowed by same-named functions in
        # ``repro.core``, so they are looked up by module path.
        engine, gas, greedy, heuristics, api_session = (
            import_module(f"repro.{name}")
            for name in ("core.engine", "core.gas", "core.greedy", "core.heuristics", "api.session")
        )
        engine._span = timer.span
        for module in (gas, greedy):
            timer.wrap(module, "compute_followers", "core.followers")
        for module in (gas, greedy, heuristics):
            timer.wrap(module, "evaluate_anchor_set", "core.evaluate_anchor_set")
        timer.wrap(heuristics, "upward_route_size", "core.upward_route")
        timer.wrap(TrussComponentTree, "apply_commit", "engine.tree_patch")
        timer.wrap(GraphIndex, "__init__", "graph.index_build")

        resolve_graph = api_session.resolve_graph
        registry = self.registry

        def timed_resolve(spec):
            start = now()
            result = resolve_graph(spec)
            kind = "dataset" if spec.dataset is not None else "inline"
            registry.histogram(f"resolve.graph_s.{kind}").observe(now() - start)
            return result

        api_session.resolve_graph = timed_resolve
        self._setup_self_s: Dict[str, float] = {}
        self._setup_calls: Dict[str, int] = {}
        self._setup_root_s = 0.0
        self._registry_before: Dict[str, object] = {}

    def start_stream(self) -> None:
        """Mark the end of set-up: stream metrics count from here."""
        self._setup_self_s = dict(self.timer.self_s)
        self._setup_calls = dict(self.timer.calls)
        self._setup_root_s = self.timer.root_s
        self._registry_before = self.registry.snapshot()

    def covered_s(self) -> float:
        """Stream time spent inside outermost spans."""
        return self.timer.root_s - self._setup_root_s

    def metrics(self) -> Dict[str, float]:
        """Stream-only layer metrics; index builds and resolves include set-up."""
        values: Dict[str, float] = {}
        for name in _SPANS_TIMED:
            values[f"{name}_s"] = self.timer.self_s.get(name, 0.0) - self._setup_self_s.get(name, 0.0)
        values["graph.index_build_s"] = self.timer.self_s.get("graph.index_build", 0.0)
        for name in _COUNTED_CALLS:
            values[f"{name}_calls"] = float(
                self.timer.calls.get(name, 0) - self._setup_calls.get(name, 0)
            )
        after = self.registry.snapshot()["histograms"]
        before = self._registry_before.get("histograms", {})
        peel = _histogram_diff(
            before.get("kernel.peel_s.vectorized"), after.get("kernel.peel_s.vectorized")
        )
        values["kernel.peel_s.vectorized.sum"] = float(peel["sum"])
        values["kernel.peel_s.vectorized.count"] = float(peel["count"])
        for kind in ("dataset", "inline"):
            entry = after.get(f"resolve.graph_s.{kind}")
            values[f"resolve.graph_s.{kind}.sum"] = float(entry["sum"]) if entry else 0.0
        return values


# ---------------------------------------------------------------------------
# Servers: differences between two {"op": "metrics"} scrapes
# ---------------------------------------------------------------------------
def _histogram_diff(before: Optional[dict], after: Optional[dict]) -> Dict[str, object]:
    """The observations made between two snapshots of one histogram."""
    if not after:
        return {"count": 0, "sum": 0.0, "min": None, "max": None, "buckets": []}
    before_counts = [int(b["count"]) for b in (before or {}).get("buckets", [])]
    buckets = []
    for index, bucket in enumerate(after["buckets"]):
        earlier = before_counts[index] if index < len(before_counts) else 0
        buckets.append({"le": bucket["le"], "count": int(bucket["count"]) - earlier})
    return {
        "count": int(after["count"]) - int((before or {}).get("count", 0)),
        "sum": float(after["sum"]) - float((before or {}).get("sum", 0.0)),
        "min": after.get("min"),
        "max": after.get("max"),
        "buckets": buckets,
    }


def _quantile(histogram: Dict[str, object], q: float) -> float:
    from repro.cluster.telemetry import quantile_from_snapshot

    return quantile_from_snapshot(histogram, q)


class ScrapeDiff:
    """Counter and histogram differences between two metrics scrapes."""

    def __init__(self, before: Dict[str, object], after: Dict[str, object]) -> None:
        self._before = before
        self._after = after

    def counter(self, name: str) -> float:
        after = dict(self._after.get("counters") or {})
        before = dict(self._before.get("counters") or {})
        return float(after.get(name, 0) - before.get(name, 0))

    def histogram(self, name: str) -> Dict[str, object]:
        return _histogram_diff(
            dict(self._before.get("histograms") or {}).get(name),
            dict(self._after.get("histograms") or {}).get(name),
        )

    def quantile(self, name: str, q: float) -> float:
        return _quantile(self.histogram(name), q)


def server_metrics(diff: ScrapeDiff, requests: int) -> Dict[str, float]:
    """Layer metrics a ``serve`` or ``cluster`` registry reports."""
    values: Dict[str, float] = {}
    for name in ("service.queue_wait_s", "service.solve_s"):
        values[f"{name}.p50"] = diff.quantile(name, 0.50)
        values[f"{name}.p95"] = diff.quantile(name, 0.95)
    values["service.solve_s.sum"] = float(diff.histogram("service.solve_s")["sum"])
    for name in (
        "sessions.hits", "sessions.misses", "sessions.evictions", "store.hits",
        "service.memo_hits", "service.errors", "service.shed", "service.expired",
        "router.store_hits", "router.reroutes", "router.backend_failures",
    ):
        values[name] = diff.counter(name)
    for key in ENGINE_COUNTERS + ("follower_recomputes",):
        values[f"engine.{key}"] = diff.counter(f"engine.{key}")
    values["cache.hit_ratio"] = (values["service.memo_hits"] + values["store.hits"]) / requests
    peel = diff.histogram("kernel.peel_s.vectorized")
    values["kernel.peel_s.vectorized.sum"] = float(peel["sum"])
    values["kernel.peel_s.vectorized.count"] = float(peel["count"])
    for kind in ("dataset", "inline"):
        values[f"resolve.graph_s.{kind}.sum"] = float(diff.histogram(f"resolve.graph_s.{kind}")["sum"])
    route = diff.histogram("router.route_s")
    if route["count"]:
        values["router.route_s.p50"] = _quantile(route, 0.50)
        values["router.route_s.p95"] = _quantile(route, 0.95)
    return values


def outside_service_p50(round_trips: Sequence[float], timings: Sequence[Dict[str, float]]) -> float:
    """Median of caller round trip minus the serving backend's queue wait
    and solve: the transports, plus the router tier in a cluster.  Requests
    no backend served (router store hits) carry no timings and are skipped.
    """
    gaps: List[float] = [
        rt - float(t["queued_s"]) - float(t["solve_s"])
        for rt, t in zip(round_trips, timings)
        if "queued_s" in t and "solve_s" in t
    ]
    return statistics.median(gaps) if gaps else 0.0
