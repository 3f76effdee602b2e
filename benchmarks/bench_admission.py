#!/usr/bin/env python
"""Steady-state cost of admission control: a gate, not a benchmark row.

The same GAS workload (8 requests, b=2, on the ``college`` stand-in) runs
through an unbounded ``SolveService(workers=2, store_capacity=0)`` and through
a bounded one (``max_inflight=2, max_queue_depth=8``) whose window admits
every request.  Nothing is shed, so the bounded service should cost only
its counter updates.

Each pass sends the 8 requests in a closed loop (the next one after the
previous answer), so every request's admission sits on the pass's critical
path.  Sent as one batch instead, same-graph solves queue on their session
lock, and the second worker hides whatever the admission path costs.

Both services first serve one pass, untimed, so that neither timed pass
pays the process's first-solve warm-up or a cold session.  Then each of
``ROUNDS`` rounds runs ``PASSES`` passes per service, the two services
taking turns, and its ratio is the unbounded service's median request time
over the bounded one's (a closed loop's throughput ratio, read robustly).
Rounds alternate which service goes first, and the gate reads the median
of the round ratios: run order cancels out, and a request or a round that
something else on the machine disturbed cannot decide it.  The script
prints the row as JSON and exits 1 when the median ratio is below 0.95.

Run with::

    PYTHONPATH=src python benchmarks/bench_admission.py

It takes no flags and writes no file.  The recorded history of this row
is the ``resilience`` section of ``BENCH_kernel.json`` (measured as one
timed batch per fresh service, the unbounded one first).
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import List

from repro.api import SolveSpec
from repro.datasets import load_dataset
from repro.service import SolveService

REQUESTS = 8
WORKERS = 2
ROUNDS = 12
PASSES = 3
TARGET_RATIO = 0.95


def closed_loop_pass(service: SolveService, specs) -> List[float]:
    """Per-request wall clock of one closed-loop pass; every answer must be ok."""
    times = []
    for spec in specs:
        start = time.perf_counter()
        outcome = service.submit(spec).result()
        times.append(time.perf_counter() - start)
        if not outcome.ok:
            raise SystemExit(f"steady-state workload failed: {outcome.request_id}")
    return times


def main() -> int:
    edges = tuple(load_dataset("college").edge_list())
    specs = [
        SolveSpec(request_id=f"steady-{index}", edges=edges, algorithm="gas", budget=2)
        for index in range(REQUESTS)
    ]
    ratios = []
    with SolveService(workers=WORKERS, store_capacity=0) as unbounded, SolveService(
        workers=WORKERS,
        store_capacity=0,
        max_inflight=WORKERS,
        max_queue_depth=REQUESTS,
    ) as bounded:
        for service in (unbounded, bounded):
            closed_loop_pass(service, specs)  # warm-up, untimed
        for round_index in range(ROUNDS):
            turns = (bounded, unbounded) if round_index % 2 else (unbounded, bounded)
            times = {id(service): [] for service in turns}
            for _ in range(PASSES):
                for service in turns:
                    times[id(service)] += closed_loop_pass(service, specs)
            ratios.append(
                statistics.median(times[id(unbounded)])
                / statistics.median(times[id(bounded)])
            )
    ratio = statistics.median(ratios)
    row = {
        "requests": REQUESTS,
        "workers": WORKERS,
        "rounds": ROUNDS,
        "passes_per_round": PASSES,
        "round_ratios": [round(value, 3) for value in ratios],
        "throughput_ratio": round(ratio, 3),
        "meets_steady_state_target": ratio >= TARGET_RATIO,
    }
    print(json.dumps(row))
    return 0 if row["meets_steady_state_target"] else 1


if __name__ == "__main__":
    sys.exit(main())
