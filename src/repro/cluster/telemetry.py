"""Cluster-wide telemetry: merging per-backend metrics snapshots.

Every backend exposes a :class:`~repro.obs.metrics.MetricsRegistry`
snapshot over the ``{"op": "metrics"}`` control line.  The histogram
snapshots were designed (PR 9) to be mergeable across processes — fixed
shared bucket bounds with per-bucket counts — so a cluster-wide view is
pure arithmetic: sum counters, sum gauges (they are all occupancy-style),
add histogram bucket counts position-wise, then recompute the quantile
estimates from the merged buckets with
:func:`repro.obs.metrics.quantile_from_snapshot` — the estimator
:meth:`repro.obs.metrics.Histogram.quantile` uses, clamped to the merged
observed ``[min, max]``.

The merged dict has the exact registry-snapshot shape
(``counters`` / ``gauges`` / ``histograms``), so
:func:`repro.obs.metrics.prometheus_from_snapshot` — and therefore
``repro.cli obs --format prom`` — renders a cluster view unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.obs.metrics import quantile_from_snapshot

__all__ = [
    "merge_histogram_snapshots",
    "merge_metrics_snapshots",
    "quantile_from_snapshot",
]


def merge_histogram_snapshots(
    snapshots: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Merge same-named histogram snapshots into one cluster snapshot.

    All non-empty inputs must share identical bucket bounds (they do by
    construction — every backend runs the same metrics code); a mismatch
    raises ``ValueError`` rather than producing a silently wrong merge.
    """
    merged_bounds: Optional[List[object]] = None
    merged_counts: List[int] = []
    count = 0
    total = 0.0
    lo: Optional[float] = None
    hi: Optional[float] = None
    for snapshot in snapshots:
        if int(snapshot.get("count", 0)) == 0 and not snapshot.get("buckets"):
            continue
        bounds = [bucket["le"] for bucket in snapshot["buckets"]]  # type: ignore[index]
        if merged_bounds is None:
            merged_bounds = bounds
            merged_counts = [0] * len(bounds)
        elif bounds != merged_bounds:
            raise ValueError(
                "cannot merge histograms with different bucket bounds"
            )
        for index, bucket in enumerate(snapshot["buckets"]):  # type: ignore[index]
            merged_counts[index] += int(bucket["count"])
        count += int(snapshot.get("count", 0))
        total += float(snapshot.get("sum", 0.0))
        for bound_value, pick in ((snapshot.get("min"), min), (snapshot.get("max"), max)):
            if bound_value is None:
                continue
            if pick is min:
                lo = bound_value if lo is None else min(lo, bound_value)
            else:
                hi = bound_value if hi is None else max(hi, bound_value)
    if merged_bounds is None:
        return {
            "count": 0, "sum": 0.0, "min": None, "max": None,
            "buckets": [], "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }
    merged = {
        "count": count,
        "sum": total,
        "min": lo,
        "max": hi,
        "buckets": [
            {"le": bound, "count": merged_counts[index]}
            for index, bound in enumerate(merged_bounds)
        ],
    }
    merged["p50"] = quantile_from_snapshot(merged, 0.50)
    merged["p95"] = quantile_from_snapshot(merged, 0.95)
    merged["p99"] = quantile_from_snapshot(merged, 0.99)
    return merged


def merge_metrics_snapshots(
    snapshots: Sequence[Dict[str, object]],
) -> Dict[str, object]:
    """Merge registry snapshots (``counters``/``gauges``/``histograms``).

    Counters and gauges sum per name; histograms merge per name via
    :func:`merge_histogram_snapshots`.  The result is itself a valid
    registry snapshot, renderable by ``prometheus_from_snapshot``.
    """
    counters: Dict[str, int] = {}
    gauges: Dict[str, float] = {}
    histogram_parts: Dict[str, List[Dict[str, object]]] = {}
    for snapshot in snapshots:
        for name, value in dict(snapshot.get("counters") or {}).items():
            counters[name] = counters.get(name, 0) + int(value)
        for name, value in dict(snapshot.get("gauges") or {}).items():
            gauges[name] = gauges.get(name, 0) + value
        for name, hist in dict(snapshot.get("histograms") or {}).items():
            histogram_parts.setdefault(name, []).append(hist)
    return {
        "counters": dict(sorted(counters.items())),
        "gauges": dict(sorted(gauges.items())),
        "histograms": {
            name: merge_histogram_snapshots(parts)
            for name, parts in sorted(histogram_parts.items())
        },
    }
