"""The in-process system under test of ``solve-large``.

One warm ``repro.api.Session`` per dataset, driven by one caller that sends
the next spec only after the previous outcome returned.  The benchmark
starts this script with the program's ``src`` on ``PYTHONPATH`` and talks
to it in JSON lines::

    -> {"ready": {...}}    sessions built, one warm-up solve per graph done
    <- [request, ...] | quit
    -> {"done": {...}}     per-request latencies and outcomes, work counts
                           and, with --trace, the layer metrics

The benchmark builds the request stream itself, so neither set-up nor the
peak memory of this process includes the load generator's work.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import layers
import streams


def work_counts(outcomes) -> dict:
    """Summed outcome payload counters: they repeat exactly for one seed."""
    counts = dict.fromkeys(
        [f"engine.{key}" for key in layers.ENGINE_COUNTERS]
        + ["engine.follower_recomputes", "repetitions"],
        0,
    )
    for outcome in outcomes:
        extra = (outcome.result or {}).get("extra", {})
        for key in layers.ENGINE_COUNTERS:
            counts[f"engine.{key}"] += int(extra.get("engine", {}).get(key, 0))
        counts["engine.follower_recomputes"] += sum(extra.get("recomputed_entries_per_round", []))
        counts["repetitions"] += int(extra.get("repetitions", 0))
    return counts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = layers.InProcessTracer() if args.trace else None
    from repro.api import Session, SolveSpec

    sessions = {name: Session(dataset=name) for name in streams.SOLVE_LARGE_GRAPHS}
    graphs = [{"dataset": name} for name in streams.SOLVE_LARGE_GRAPHS]
    for request in streams.warmup_requests(graphs):
        sessions[request["dataset"]].solve(SolveSpec.from_json_dict(request)).raise_for_error()
    print(json.dumps({"ready": {"graphs": len(sessions)}}), flush=True)
    line = sys.stdin.readline().strip()
    if line == "quit":
        return 0
    specs = [SolveSpec.from_json_dict(request) for request in json.loads(line)]

    if tracer is not None:
        tracer.start_stream()
    latencies, outcomes = [], []
    cpu_start = time.process_time()
    start = time.perf_counter()
    for spec in specs:
        session = sessions[spec.dataset]
        sent = time.perf_counter()
        outcomes.append(session.solve(spec))
        latencies.append(time.perf_counter() - sent)
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu_start
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    done = {
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mib": peak_rss_mib,
        "latencies": latencies,
        "outcomes": [outcome.to_json_dict() for outcome in outcomes],
        "work": work_counts(outcomes),
    }
    if tracer is not None:
        values = tracer.metrics()
        values.update({k: float(v) for k, v in done["work"].items() if k.startswith("engine.")})
        values["unattributed_pct"] = layers.unattributed_pct(latencies, [tracer.covered_s()])
        done["layers"] = values
    print(json.dumps({"done": done}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
