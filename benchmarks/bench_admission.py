#!/usr/bin/env python
"""Steady-state cost of admission control: a gate, not a benchmark row.

The same GAS workload (8 requests, b=2, on the ``college`` stand-in) runs
through an unbounded ``SolveService(workers=2, memoize=False)`` and through
a bounded one (``max_inflight=2, max_queue_depth=8``) whose window admits
every request.  Nothing is shed, so the bounded service should cost only
its counter updates: the script prints the row as JSON and exits 1 when
``unbounded_s / bounded_s < 0.95``.

Run with::

    PYTHONPATH=src python benchmarks/bench_admission.py

It takes no flags and writes no file.  The recorded history of this row
is the ``resilience`` section of ``BENCH_kernel.json``.
"""

from __future__ import annotations

import json
import sys
import time

from repro.api import SolveSpec
from repro.datasets import load_dataset
from repro.service import SolveService

REQUESTS = 8
WORKERS = 2
TARGET_RATIO = 0.95


def timed_run(specs, **admission) -> float:
    """Wall clock of one ``solve_many`` over ``specs``; every answer must be ok."""
    with SolveService(workers=WORKERS, memoize=False, **admission) as service:
        start = time.perf_counter()
        outcomes = service.solve_many(specs)
        elapsed = time.perf_counter() - start
    failed = [outcome.request_id for outcome in outcomes if not outcome.ok]
    if failed:
        raise SystemExit(f"steady-state workload failed: {failed}")
    return elapsed


def main() -> int:
    edges = tuple(load_dataset("college").edge_list())
    specs = [
        SolveSpec(request_id=f"steady-{index}", edges=edges, algorithm="gas", budget=2)
        for index in range(REQUESTS)
    ]
    unbounded_s = timed_run(specs)
    bounded_s = timed_run(specs, max_inflight=WORKERS, max_queue_depth=REQUESTS)
    ratio = unbounded_s / bounded_s
    row = {
        "requests": REQUESTS,
        "workers": WORKERS,
        "unbounded_s": round(unbounded_s, 4),
        "bounded_s": round(bounded_s, 4),
        "throughput_ratio": round(ratio, 3),
        "meets_steady_state_target": ratio >= TARGET_RATIO,
    }
    print(json.dumps(row))
    return 0 if row["meets_steady_state_target"] else 1


if __name__ == "__main__":
    sys.exit(main())
