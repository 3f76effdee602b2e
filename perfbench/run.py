"""The repository benchmark: closed-loop workloads with checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` and ``perfbench/README.md``):

* ``solve-large`` — one caller drives warm in-process ``repro.api.Session``
  objects over the four largest stand-ins (engine-bound);
* ``serve-mix`` — one caller on a persistent TCP connection to
  ``repro.cli serve --transport tcp`` (default settings);
* ``cluster-mix`` — the same stream from two lock-step callers to
  ``repro.cli cluster --backends 2``.

Every caller sends its next request only after the reply arrived, and every
run serves the whole seeded stream, sized so that it takes about
``--seconds`` on the reference machine.  With ``--trace 0`` the run sets the
system up three times (``setup_s`` is the median), serves the stream on the
last one and prints the end-to-end metrics.  With ``--trace 1`` it serves
the stream twice, untraced and traced, and prints the per-layer metrics.
Every answer is checked against a cold one-shot solve; a wrong answer makes
the run exit 1.  The last stdout line is the result object; the line before
it holds the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import socket
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import layers
import oracle
import streams
import sut

SETUPS = 3
#: serve-mix has one caller: two callers in one server process share its
#: interpreter lock, and which requests met decided a request's latency.
CALLERS = {"solve-large": 1, "serve-mix": 1, "cluster-mix": 2}
TAIL_BEYOND = 10


def declared(kind: str) -> Dict[str, str]:
    """Name -> unit of the ``kind`` metrics (``end_to_end`` or
    ``per_layer``), in the order ``BENCHMARK.json`` declares them."""
    benchmark = json.loads((sut.ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in benchmark[kind]}


@dataclass
class Pass:
    """One served stream: what the callers saw and what the system spent."""

    requests: List[Dict[str, object]]
    outcomes: List[Optional[Dict[str, object]]]
    latencies: List[float]
    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    setup_s: List[float]
    work: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)

    @property
    def answered(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome is not None)

    @property
    def throughput_rps(self) -> float:
        return self.answered / self.wall_s


def tail(latencies: Sequence[float]) -> Tuple[float, float]:
    """The highest percentile with ``TAIL_BEYOND`` samples beyond it.

    Returns ``(value, percentile)``; needs more than ``TAIL_BEYOND`` samples.
    """
    ordered = sorted(latencies)
    index = len(ordered) - TAIL_BEYOND - 1
    if index < 0:
        raise ValueError(f"{len(ordered)} samples leave no tail with {TAIL_BEYOND} beyond")
    return ordered[index], 100.0 * (index + 1) / len(ordered)


# ---------------------------------------------------------------------------
# solve-large: the in-process system under test
# ---------------------------------------------------------------------------
def session_pass(seed: int, seconds: float, setups: int, traced: bool) -> Pass:
    from repro.datasets import load_dataset

    stream = streams.solve_large(seed, seconds, lambda name: load_dataset(name).edge_list())
    argv = [sys.executable, str(Path(__file__).with_name("session_sut.py"))]
    if traced:
        argv.append("--trace")
    setup_s: List[float] = []
    for attempt in range(setups):
        launched = sut.Launched(argv, f"solve-large-{seed}", stdin=True)
        try:
            launched.read_message("ready")
            setup_s.append(time.perf_counter() - launched.started)
            if attempt < setups - 1:
                launched.send("quit")
                continue
            launched.send(json.dumps([streams.wire(request) for request in stream]))
            done = launched.read_message("done", timeout=900)
        finally:
            launched.stop()
    return Pass(
        requests=stream,
        outcomes=done["outcomes"],
        latencies=done["latencies"],
        wall_s=done["wall_s"],
        cpu_s=done["cpu_s"],
        peak_rss_mib=done["peak_rss_mib"],
        setup_s=setup_s,
        work=done["work"],
        layers=done.get("layers", {}),
    )


# ---------------------------------------------------------------------------
# serve-mix / cluster-mix: closed-loop JSON-lines callers over TCP
# ---------------------------------------------------------------------------
def drive(address: Tuple[str, int], lines: Sequence[bytes], callers: int):
    """Send ``lines`` from ``callers`` persistent connections in lock step.

    Each round sends ``callers`` consecutive lines, one per connection, and
    the next round starts when every reply of the round arrived: a closed
    loop whose overlap pattern is the same in every run, so a request's
    latency does not depend on which other request happened to run beside
    it.  Returns ``(replies, latencies, wall_s)``; a reply is ``None`` when
    the connection failed (the caller reconnects).
    """
    count = len(lines)
    replies: List[Optional[bytes]] = [None] * count
    latencies = [0.0] * count
    barrier = threading.Barrier(callers + 1)
    rounds = threading.Barrier(callers)
    errors: List[BaseException] = []

    def connect():
        conn = socket.create_connection(address, timeout=300)
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn, conn.makefile("rb")

    def caller(index: int) -> None:
        conn = reader = None
        try:
            conn, reader = connect()
            barrier.wait()
            for position in range(index, count + (-count) % callers, callers):
                if position < count:
                    sent = time.perf_counter()
                    try:
                        conn.sendall(lines[position])
                        reply = reader.readline()
                    except OSError:
                        reply = b""
                    latencies[position] = time.perf_counter() - sent
                    if reply:
                        replies[position] = reply
                    else:
                        reader.close()
                        conn.close()
                        conn, reader = connect()
                rounds.wait()
        except BaseException as exc:  # re-raised by the driving thread
            errors.append(exc)
            barrier.abort()
            rounds.abort()
        finally:
            if reader is not None:
                reader.close()
            if conn is not None:
                conn.close()

    threads = [threading.Thread(target=caller, args=(i,), daemon=True) for i in range(callers)]
    for thread in threads:
        thread.start()
    try:
        barrier.wait()
    except threading.BrokenBarrierError:
        pass
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return replies, latencies, wall


def control(address: Tuple[str, int], op: str) -> Dict[str, object]:
    """One ``{"op": ...}`` control round trip."""
    replies, _latencies, _wall = drive(address, [json.dumps({"op": op}).encode() + b"\n"], 1)
    if replies[0] is None:
        raise RuntimeError(f"no reply to the {op!r} control line")
    return json.loads(replies[0])


def encode(requests: Sequence[Dict[str, object]]) -> List[bytes]:
    return [json.dumps(streams.wire(r), separators=(",", ":")).encode() + b"\n" for r in requests]


def server_pass(workload: str, seed: int, seconds: float, setups: int, traced: bool) -> Pass:
    stream = streams.serve_mix(seed, seconds)
    warmup = encode(streams.warmup_requests(stream))
    lines = encode(stream)
    if workload == "serve-mix":
        command, args = "serve", ["--transport", "tcp"] + (["--metrics"] if traced else [])
    else:
        command, args = "cluster", ["--backends", "2"]
    setup_s: List[float] = []
    for attempt in range(setups):
        launched, address, backends = sut.launch_server(command, args, f"{workload}-{seed}")
        try:
            replies, _latencies, _wall = drive(address, warmup, CALLERS[workload])
            if not all(reply and json.loads(reply).get("ok") for reply in replies):
                raise RuntimeError("a warm-up solve failed")
            setup_s.append(time.perf_counter() - launched.started)
            if attempt < setups - 1:
                continue
            before = control(address, "metrics")
            backends_before = [control(backend, "metrics") for backend in backends]
            cpu_before = launched.cpu_seconds()
            replies, latencies, wall = drive(address, lines, CALLERS[workload])
            cpu = launched.cpu_seconds() - cpu_before
            peak_rss = launched.peak_rss_mib()
            after = control(address, "metrics")
            backends_after = [control(backend, "metrics") for backend in backends]
        finally:
            launched.stop()

    outcomes = [json.loads(reply) if reply else None for reply in replies]
    diff = layers.ScrapeDiff(before, after)
    work = {
        name: diff.counter(name)
        for name in ("sessions.hits", "sessions.misses", "sessions.evictions",
                     "store.hits", "service.memo_hits", "router.store_hits")
    }
    values = layers.server_metrics(diff, len(stream))
    timings = [dict((o or {}).get("timings") or {}) for o in outcomes]
    outside = "router.overhead_s.p50" if backends else "service.transport_s.p50"
    values[outside] = layers.outside_service_p50(latencies, timings)
    busy = [
        layers.ScrapeDiff(b, a).histogram("service.solve_s")["sum"]
        for b, a in zip(backends_before, backends_after)
    ]
    if busy:
        values["cluster.load_imbalance"] = max(busy) / statistics.mean(busy)
        values["cluster.busy_share"] = sum(busy) / (wall * len(busy))
    covered = [
        float(t["queued_s"]) + float(t["solve_s"])
        for t in timings if "queued_s" in t and "solve_s" in t
    ]
    values["unattributed_pct"] = layers.unattributed_pct(latencies, covered)
    return Pass(
        requests=stream,
        outcomes=outcomes,
        latencies=latencies,
        wall_s=wall,
        cpu_s=cpu,
        peak_rss_mib=peak_rss,
        setup_s=setup_s,
        work=work,
        layers=values,
    )


def serve(workload: str, seed: int, seconds: float, setups: int, traced: bool) -> Pass:
    if workload == "solve-large":
        return session_pass(seed, seconds, setups, traced)
    return server_pass(workload, seed, seconds, setups, traced)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------
def end_to_end(run: Pass, succeeded: int) -> Dict[str, float]:
    return {
        "throughput_rps": run.throughput_rps,
        "latency_p50_s": statistics.median(run.latencies),
        "latency_tail_s": tail(run.latencies)[0],
        "cpu_s_per_req": run.cpu_s / run.answered,
        "setup_s": statistics.median(run.setup_s),
        "peak_rss_mb": run.peak_rss_mib,
        "success_rate": succeeded / len(run.requests),
    }


def results_digest(run: Pass) -> str:
    """Digest of every canonical answer in stream order (ids included)."""
    digest = hashlib.sha256()
    for request, outcome in zip(run.requests, run.outcomes):
        answer = oracle.canonical_answer(outcome) if outcome else "no answer"
        digest.update(f"{request['id']} {answer}\n".encode())
    return digest.hexdigest()


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CALLERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds through the ``finally`` blocks that stop the
    # systems under test, which live in their own process groups.
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))

    if not (sut.ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {sut.ROOT / 'src'}", file=sys.stderr)
        return 2
    sut.prime_bytecode()
    sys.pycache_prefix = str(sut.PYCACHE)
    sys.path.insert(0, str(sut.ROOT / "src"))

    calibration_before = sut.calibration_cpu_s()
    if args.trace:
        untraced = serve(args.workload, args.seed, args.seconds, 1, traced=False)
        passes = [untraced, serve(args.workload, args.seed, args.seconds, 1, traced=True)]
    else:
        passes = [serve(args.workload, args.seed, args.seconds, SETUPS, traced=False)]
    calibration_after = sut.calibration_cpu_s()
    measured = passes[-1]

    cache = sut.BUILD / f"oracle-{oracle.source_digest(sut.ROOT / 'src' / 'repro')}.json"
    expected = oracle.expected_answers(measured.requests, sut.program_env(), cache)
    verdicts = [oracle.check(p.requests, p.outcomes, expected) for p in passes]
    attempted = sum(len(p.requests) for p in passes)
    succeeded = sum(len(v["succeeded"]) for v in verdicts)
    wrong = sum(len(v["wrong"]) for v in verdicts)
    failed = attempted - succeeded
    problems = [
        f"{len(v[kind])} {kind} (first: {p.requests[v[kind][0]]['id']})"
        for p, v in zip(passes, verdicts) for kind in ("failed", "wrong") if v[kind]
    ]
    repeatable = not (args.workload == "solve-large" and args.trace) or (
        passes[0].work == passes[1].work
    )
    if not repeatable:
        problems.append(f"work counts differ between passes: {passes[0].work} != {passes[1].work}")

    tail_value, tail_percentile = tail(measured.latencies)
    if args.trace:
        # A metric of a module the workload does not run reads 0.
        values = dict(measured.layers)
        values["trace.overhead_pct"] = layers.overhead_pct(
            passes[0].throughput_rps, measured.throughput_rps
        )
        metrics = {
            name: {"value": float(values.get(name, 0.0)), "unit": unit}
            for name, unit in declared("per_layer").items()
        }
    else:
        values = end_to_end(measured, len(verdicts[0]["succeeded"]))
        metrics = {
            name: {"value": values[name], "unit": unit}
            for name, unit in declared("end_to_end").items()
        }
    run = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "callers": CALLERS[args.workload],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "bytecode": f"precompiled into {sut.PYCACHE.relative_to(sut.ROOT)}, read-only at run time",
        "calibration_cpu_s": {"before": calibration_before, "after": calibration_after},
        "requests": {"sent": attempted, "succeeded": succeeded, "failed": failed - wrong,
                     "wrong": wrong},
        "classes": streams.class_counts(measured.requests),
        "tail": {"percentile": tail_percentile, "samples": len(measured.latencies),
                 "beyond": TAIL_BEYOND, "value_s": tail_value},
        "setup_samples_s": measured.setup_s,
        "work": measured.work,
        "results_digest": results_digest(measured),
        "problems": problems,
    }
    print(json.dumps({"run": run}, sort_keys=True))
    print(
        f"{args.workload} seed={args.seed}: sent {attempted}, succeeded {succeeded}, "
        f"failed {failed - wrong}, wrong {wrong}",
        file=sys.stderr,
    )
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    correct = wrong == 0 and repeatable
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
