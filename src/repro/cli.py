"""Command line interface (installed as ``repro-atr``).

Sub-commands
------------
``datasets``
    List the registered stand-in datasets with their Table III statistics.
``solvers``
    List the registered anchor-selection solvers.
``solve``
    Run an anchor-selection algorithm on a dataset or an edge-list file
    (``--format json`` for machine-readable output).  Builds a canonical
    :class:`repro.api.SolveSpec` and runs it through ``repro.api.solve`` —
    the same ingress the service uses.
``serve``
    Serve solve requests as a JSON-lines loop over a pluggable transport:
    ``--transport stdio`` (default; one request per stdin line, one
    response per stdout line, until EOF) or ``--transport tcp`` (the same
    line protocol served on ``--host``/``--port``).
``batch``
    Run a JSON-lines request *file* through the service (grouped by graph
    for warm-session reuse) and write a JSON-lines response file.
``cluster``
    Serve the same line protocol from a *sharded* fleet: spawn
    ``--backends N`` local ``SolveService`` TCP backends as subprocesses
    (or ``--attach host:port,…`` to running ones) behind a front-end
    :class:`repro.cluster.RouterService` that consistent-hashes each
    request's graph fingerprint onto the owning backend, fails over to
    the ring successor on crashes, and aggregates cluster-wide
    ``metrics``/``health`` on the usual control ops — so ``obs`` works
    unchanged against the router port.
``world``
    Sample parameterised synthetic "world points" (generator family ×
    density/clustering/skew axes, see :mod:`repro.world`), sweep every
    registered solver across them (``--json``/``--csv`` for the row dump),
    and/or run the engine's invariant fuzzing rig on each point
    (``--check``).  ``--smoke`` is the small CI tier; ``--replay
    "<point-spec>"`` re-runs the oracle on the exact point printed by a
    failing rig run.
``obs``
    One telemetry round-trip against a live TCP server: send
    ``{"op": "metrics"}`` (or ``health``) and print the snapshot as pretty
    JSON or Prometheus text (``--format prom``).
``experiment``
    Run one experiment of the harness (table3, fig5, ..., ablation).
``report``
    Run every experiment and print a combined report (the content of
    EXPERIMENTS.md is produced this way).

``serve`` and ``batch`` accept ``--executor thread|process``: the process
executor ships pickled specs to ``ProcessPoolExecutor`` workers (which
rebuild sessions from graph fingerprints) for true cross-graph parallelism
past the GIL.  They also take the resilience knobs ``--max-inflight`` /
``--max-queue`` (bounded admission: excess load is shed with fast
structured ``overloaded`` responses) and ``--deadline-default`` (a
per-request deadline for specs that carry none); a TCP ``serve`` drains
gracefully on SIGTERM — stops accepting, finishes in-flight requests,
then exits.  ``serve --metrics`` arms process-global telemetry
(:mod:`repro.obs`) for the server's lifetime, and ``solve --trace``
prints the solve's span tree to stderr.

The solver table is a live view over the registry of
:mod:`repro.core.engine` — registering a solver anywhere makes it available
to ``solve --algorithm`` (and to every service request) without touching
this module.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

from repro.core.engine import solver_table
from repro.datasets import DATASETS, dataset_statistics
from repro.experiments.config import PROFILES, get_profile
from repro.experiments.runner import available_experiments, run_all, run_experiment

#: Live name -> solver view over the engine's registry (was a hand-maintained
#: dict of imported functions before the SolverEngine layer existed).
_SOLVERS = solver_table()


def _at_least(minimum: float, kind: type = int, strict: bool = False):
    """An argparse ``type=`` for a finite number ``>= minimum`` (``>
    minimum`` when ``strict``): a value out of range is a usage error naming
    the flag (exit 2), not a traceback from deep inside the service."""

    def parse(text: str):
        value = kind(text)
        if isinstance(value, float) and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be a finite number, got {text}")
        if not (value > minimum if strict else value >= minimum):
            raise argparse.ArgumentTypeError(
                f"must be {'>' if strict else '>='} {minimum}, got {text}"
            )
        return value

    # argparse names the type in its "invalid <type> value" message.
    parse.__name__ = kind.__name__
    return parse


def _port(minimum: int):
    """An argparse ``type=`` for a TCP port from ``minimum`` to 65535: a
    port the socket layer would refuse is a usage error, not a traceback
    after the service has started."""

    def parse(text: str) -> int:
        value = int(text)
        if not minimum <= value <= 65535:
            raise argparse.ArgumentTypeError(
                f"must be a port from {minimum} to 65535, got {text}"
            )
        return value

    parse.__name__ = "int"
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-atr",
        description="Anchor Trussness Reinforcement (ATR) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("datasets", help="list the registered stand-in datasets")
    sub.add_parser("solvers", help="list the registered solvers")

    solve = sub.add_parser("solve", help="run an anchor-selection algorithm")
    solve.add_argument("--dataset", choices=sorted(DATASETS), help="stand-in dataset name")
    solve.add_argument("--edge-list", help="path to a SNAP-style edge list instead of a dataset")
    solve.add_argument("--algorithm", choices=sorted(_SOLVERS), default="gas")
    solve.add_argument("--budget", "-b", type=int, default=5)
    solve.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (json emits anchors, gain and timings machine-readably)",
    )
    solve.add_argument(
        "--trace",
        action="store_true",
        help="record the solve's span tree (ingress through the incremental "
        "peel) and print it to stderr",
    )

    def _service_args(command: argparse.ArgumentParser) -> None:
        command.add_argument(
            "--workers", type=_at_least(1), default=4, help="workers in the solve pool"
        )
        command.add_argument(
            "--executor",
            choices=("thread", "process"),
            default="thread",
            help="worker pool type: 'thread' overlaps requests, 'process' "
            "runs them in parallel across cores (pickled specs, per-worker "
            "session caches rebuilt from graph fingerprints)",
        )
        command.add_argument(
            "--session-cache",
            type=_at_least(0),
            default=8,
            help="warm engine sessions to keep (LRU; 0 disables session reuse)",
        )
        command.add_argument(
            "--store-capacity",
            type=_at_least(0),
            default=256,
            help="entries in the shared cross-graph result store, which "
            "answers repeated deterministic solves and survives session "
            "eviction (0 disables it)",
        )
        command.add_argument(
            "--max-inflight",
            type=_at_least(1),
            default=None,
            help="bound on concurrently-executing requests "
            "(default: the worker count)",
        )
        command.add_argument(
            "--max-queue",
            type=_at_least(0),
            default=None,
            help="requests allowed to wait behind the inflight bound; beyond "
            "it the service sheds load with fast structured 'overloaded' "
            "responses (default: unbounded, no shedding)",
        )
        command.add_argument(
            "--deadline-default",
            type=_at_least(0, float, strict=True),
            default=None,
            help="default per-request deadline in seconds, applied to every "
            "request that does not carry its own deadline_s "
            "(default: no deadline)",
        )

    serve = sub.add_parser(
        "serve",
        help="serve solve requests as a JSON-lines loop over stdio or TCP",
    )
    _service_args(serve)
    serve.add_argument(
        "--transport",
        choices=("stdio", "tcp"),
        default="stdio",
        help="stdio (default): one request per stdin line, one response per "
        "stdout line, until EOF; tcp: the same line protocol on --host/--port",
    )
    serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    serve.add_argument(
        "--port", type=_port(0), default=0, help="TCP bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--metrics",
        action="store_true",
        help="arm process-global telemetry for the server's lifetime: kernel "
        "and resolver hooks report into the service registry and structured "
        "JSON logs go to stderr; scrape with {\"op\": \"metrics\"} or the "
        "obs subcommand",
    )

    batch = sub.add_parser(
        "batch",
        help="run a JSON-lines request file through the service and write a "
        "JSON-lines response file",
    )
    batch.add_argument("requests", help="input request file (one JSON object per line)")
    batch.add_argument(
        "--output",
        "-o",
        default=None,
        help="response file path (default: <requests>.results.jsonl)",
    )
    _service_args(batch)

    cluster = sub.add_parser(
        "cluster",
        help="serve a sharded multi-backend cluster behind a "
        "fingerprint-hash router (same line protocol, one TCP port)",
    )
    # The service knobs thread through to every spawned backend;
    # --store-capacity additionally sizes the router-tier result store.
    _service_args(cluster)
    cluster.add_argument(
        "--backends",
        type=_at_least(1),
        default=3,
        help="local SolveService TCP backends to spawn as subprocesses "
        "(ignored with --attach)",
    )
    cluster.add_argument(
        "--attach",
        default=None,
        metavar="HOST:PORT,...",
        help="comma-separated running backends to attach to instead of "
        "spawning local ones (supervised but never spawned/respawned)",
    )
    cluster.add_argument(
        "--replicas",
        type=_at_least(1),
        default=64,
        help="virtual nodes per backend on the consistent-hash ring",
    )
    cluster.add_argument("--host", default="127.0.0.1", help="router bind host")
    cluster.add_argument(
        "--port", type=_port(0), default=0, help="router bind port (0 = ephemeral)"
    )
    cluster.add_argument(
        "--router-workers",
        type=_at_least(1),
        default=8,
        help="concurrent routing threads in the front end",
    )
    cluster.add_argument(
        "--probe-interval",
        type=_at_least(0, float, strict=True),
        default=1.0,
        help="seconds between backend health probes (mark-down/respawn cycle)",
    )

    world = sub.add_parser(
        "world",
        help="sweep solvers across sampled synthetic regimes and fuzz the "
        "engine invariants (see repro.world)",
    )
    world.add_argument(
        "--points", type=int, default=None,
        help="world points to sample (default: 24, or 6 with --smoke)",
    )
    world.add_argument("--seed", type=int, default=0, help="sampling seed")
    world.add_argument(
        "--budget", "-b", type=int, default=2,
        help="anchor budget per solve (exact is capped at 1)",
    )
    world.add_argument(
        "--solvers", nargs="*", default=None, metavar="NAME",
        help="solvers to sweep (default: every registered solver)",
    )
    world.add_argument(
        "--families", nargs="*", default=None, metavar="FAMILY",
        help="generator families to sample (default: all)",
    )
    world.add_argument(
        "--smoke", action="store_true",
        help="small CI tier: 6 points, budget 1, sweep + invariant rig",
    )
    world.add_argument(
        "--check", action="store_true",
        help="run the invariant rig on every sampled point (exit 1 on a "
        "violation, printing its replay line)",
    )
    world.add_argument(
        "--replay", metavar="POINT_SPEC", default=None,
        help="re-run the invariant oracle on one point spec "
        "(as printed by a failing rig run)",
    )
    world.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                       help="write sweep rows as JSON")
    world.add_argument("--csv", dest="csv_out", default=None, metavar="PATH",
                       help="write sweep rows as CSV")

    obs = sub.add_parser(
        "obs",
        help="dump a running server's telemetry (metrics or health) over TCP",
    )
    obs.add_argument("--host", default="127.0.0.1", help="server host")
    obs.add_argument("--port", type=_port(1), required=True, help="server port")
    obs.add_argument(
        "--op",
        choices=("metrics", "health"),
        default="metrics",
        help="control op to send (default: metrics)",
    )
    obs.add_argument(
        "--format",
        choices=("json", "prom"),
        default="json",
        help="json (default) pretty-prints the snapshot; prom renders "
        "metrics in the Prometheus text exposition format",
    )
    obs.add_argument(
        "--timeout",
        type=_at_least(0, float, strict=True),
        default=30.0,
        help="socket timeout in seconds",
    )

    experiment = sub.add_parser("experiment", help="run one experiment of the harness")
    experiment.add_argument("name", choices=available_experiments())
    experiment.add_argument("--profile", choices=sorted(PROFILES), default="laptop")

    report = sub.add_parser("report", help="run every experiment and print a combined report")
    report.add_argument("--profile", choices=sorted(PROFILES), default="laptop")
    report.add_argument("--only", nargs="*", choices=available_experiments(), default=None)

    return parser


def _make_service(args: argparse.Namespace):
    from repro.service import SolveService

    return SolveService(
        workers=args.workers,
        session_capacity=args.session_cache,
        executor=args.executor,
        store_capacity=args.store_capacity,
        max_inflight=args.max_inflight,
        max_queue_depth=args.max_queue,
        default_deadline_s=args.deadline_default,
    )


def _run_solve(args: argparse.Namespace) -> int:
    """The ``solve`` command: one canonical spec through ``repro.api``."""
    import repro.api as api

    if bool(args.dataset) == bool(args.edge_list):
        print("error: provide exactly one of --dataset or --edge-list", file=sys.stderr)
        return 2
    trace_id = None
    if args.trace:
        from repro.obs.tracing import new_trace_id

        trace_id = new_trace_id("cli")
    spec = api.SolveSpec(
        dataset=args.dataset or None,
        edge_list=args.edge_list or None,
        algorithm=args.algorithm,
        budget=args.budget,
        trace_id=trace_id,
    )
    if trace_id is not None:
        from repro.obs.tracing import format_span_tree, recording, span

        with recording(trace_id) as trace:
            with span("cli.solve", algorithm=args.algorithm, budget=args.budget):
                outcome = api.solve(spec)
        print(format_span_tree(trace.to_dict()), file=sys.stderr)
    else:
        outcome = api.solve(spec)
    if not outcome.ok:
        # e.g. a budget above the edge count, or exact's combinatorial
        # guard on an instance too large to enumerate.
        print(f"error: {outcome.error}", file=sys.stderr)
        return 2
    payload = outcome.result
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        assert payload is not None
        print(
            f"{payload['algorithm']}: b={payload['budget']} gain={payload['gain']} "
            f"followers={payload['follower_count']} "
            f"time={payload['timings']['elapsed_seconds']:.3f}s"
        )
        print("anchors:", [tuple(edge) for edge in payload["anchors"]])
        print(
            "gain by original trussness:",
            {int(k): v for k, v in payload["gain_by_trussness"].items()},
        )
    return 0


def _announce_listening(address) -> None:
    """Announce a bound TCP endpoint: one machine-readable JSON line on
    stdout (what the cluster's backend spawner and scripts parse to learn
    an ephemeral ``--port 0``) plus the human line on stderr (what the CI
    smoke jobs grep).  TCP serving never writes protocol data to stdout,
    so the JSON line is unambiguous there."""
    print(
        json.dumps(
            {"listening": {"host": address[0], "port": address[1]}},
            sort_keys=True,
        ),
        flush=True,
    )
    print(f"listening on {address[0]}:{address[1]}", file=sys.stderr, flush=True)


def _run_serve(args: argparse.Namespace) -> int:
    """The ``serve`` loop behind a pluggable transport."""
    import signal
    import threading

    from repro.service import StdioTransport, TcpTransport

    armed_handler = None
    previous_default = None
    with _make_service(args) as service:
        if getattr(args, "metrics", False):
            # Arm the process-global default registry so kernel-level hooks
            # (peel timings, graph resolution) report into this service's
            # registry for the server's lifetime, and emit structured JSON
            # logs on stderr.  Both are restored/detached on exit.
            from repro.obs.logs import configure_json_logging
            from repro.obs.metrics import set_default_registry

            previous_default = set_default_registry(service.metrics)
            armed_handler = configure_json_logging()
        if args.transport == "tcp":
            transport = TcpTransport(host=args.host, port=args.port)

            def _graceful_drain(signum, _frame):  # pragma: no cover - signals
                # SIGTERM = graceful shutdown: stop accepting, finish what's
                # in flight, then release the socket.  transport.close()
                # blocks on server.shutdown(), which deadlocks if called
                # from the serve_forever thread this handler interrupts —
                # so the drain runs on its own thread.
                def _drain() -> None:
                    print("draining (signal received)...", file=sys.stderr, flush=True)
                    service.drain(timeout=30.0)
                    transport.close(drain=True, timeout=30.0)

                threading.Thread(target=_drain, daemon=True).start()

            try:
                signal.signal(signal.SIGTERM, _graceful_drain)
            except ValueError:  # pragma: no cover - non-main-thread embedding
                pass
            count = transport.serve(service, ready=_announce_listening)
        else:
            count = StdioTransport().serve(service)
        if armed_handler is not None:
            from repro.obs.logs import get_logger
            from repro.obs.metrics import set_default_registry

            set_default_registry(previous_default)
            get_logger().removeHandler(armed_handler)
        print(f"served {count} request(s); {service.stats()}", file=sys.stderr)
    return 0


def _run_batch(args: argparse.Namespace) -> int:
    from repro.service import run_batch_file

    output = args.output if args.output is not None else args.requests + ".results.jsonl"
    with _make_service(args) as service:
        summary = run_batch_file(service, args.requests, output)
    print(
        f"wrote {summary['output']}: {summary['ok']}/{summary['requests']} ok "
        f"({summary['errors']} error(s)) in {summary['elapsed_s']}s"
    )
    sessions = summary["service"]["sessions"]  # type: ignore[index]
    print(
        f"sessions: {sessions['hits']} hit(s), {sessions['misses']} miss(es), "
        f"{sessions['evictions']} eviction(s); "
        f"store hits: {summary['service']['store_hits']}"  # type: ignore[index]
    )
    return 0 if summary["errors"] == 0 else 1


def _backend_serve_args(args: argparse.Namespace) -> List[str]:
    """The service knobs, re-encoded as ``serve`` flags for spawned backends."""
    serve_args = [
        "--workers", str(args.workers),
        "--executor", args.executor,
        "--session-cache", str(args.session_cache),
        "--store-capacity", str(args.store_capacity),
    ]
    if args.max_inflight is not None:
        serve_args += ["--max-inflight", str(args.max_inflight)]
    if args.max_queue is not None:
        serve_args += ["--max-queue", str(args.max_queue)]
    if args.deadline_default is not None:
        serve_args += ["--deadline-default", str(args.deadline_default)]
    return serve_args


def _run_cluster(args: argparse.Namespace) -> int:
    """The ``cluster`` command: a router-fronted fleet on one TCP port."""
    import signal
    import threading

    from repro.cluster import BackendPool, RouterService, SubprocessBackend
    from repro.service import TcpTransport

    pool = BackendPool(probe_interval_s=args.probe_interval)
    router = None
    try:
        if args.attach:
            for index, endpoint in enumerate(args.attach.split(",")):
                host, _, port = endpoint.strip().rpartition(":")
                if not host or not port.isdigit():
                    print(
                        f"error: --attach endpoint {endpoint!r} is not host:port",
                        file=sys.stderr,
                    )
                    return 2
                pool.attach(f"attached-{index}", host, int(port))
        else:
            serve_args = _backend_serve_args(args)
            for index in range(args.backends):
                pool.add_managed(
                    f"backend-{index}", SubprocessBackend(serve_args=serve_args)
                )
        pool.start()
        router = RouterService(
            pool,
            replicas=args.replicas,
            workers=args.router_workers,
            store_capacity=args.store_capacity,
        )
        # Machine-readable fleet roster (ids, addresses, pids) so smoke
        # jobs can target a specific backend — e.g. kill one mid-stream.
        print(
            json.dumps(
                {
                    "cluster": {
                        "backends": [
                            pool.get(backend_id).describe()
                            for backend_id in pool.ids()
                        ]
                    }
                },
                sort_keys=True,
            ),
            flush=True,
        )
        transport = TcpTransport(host=args.host, port=args.port)

        def _graceful_drain(signum, _frame):  # pragma: no cover - signals
            def _drain() -> None:
                print("draining (signal received)...", file=sys.stderr, flush=True)
                router.drain(timeout=30.0)
                transport.close(drain=True, timeout=30.0)

            threading.Thread(target=_drain, daemon=True).start()

        try:
            signal.signal(signal.SIGTERM, _graceful_drain)
        except ValueError:  # pragma: no cover - non-main-thread embedding
            pass
        count = transport.serve(router, ready=_announce_listening)
        print(f"served {count} request(s); {router.stats()}", file=sys.stderr)
    finally:
        if router is not None:
            router.close()
        pool.close()
    return 0


def _run_obs(args: argparse.Namespace) -> int:
    """The ``obs`` command: one control round-trip against a live server."""
    from repro.obs.metrics import prometheus_from_snapshot
    from repro.service import request_lines_over_tcp

    lines = request_lines_over_tcp(
        args.host,
        args.port,
        [json.dumps({"op": args.op})],
        timeout=args.timeout,
    )
    if not lines:
        print("error: no response from server", file=sys.stderr)
        return 1
    payload = json.loads(lines[0])
    if args.format == "prom":
        if args.op != "metrics":
            print("error: --format prom requires --op metrics", file=sys.stderr)
            return 2
        print(prometheus_from_snapshot(payload), end="")
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _run_world(args: argparse.Namespace) -> int:
    """The ``world`` command: scenario sweep + invariant fuzzing rig."""
    import json as json_module

    from repro.experiments.reporting import format_table
    from repro.world import (
        InvariantViolation,
        WorldAxes,
        WorldPoint,
        check_world_point,
        sample_points,
        summarize_sweep,
        run_sweep,
        sweep_rows_to_csv,
    )

    if args.replay is not None:
        point = WorldPoint.from_spec(args.replay)
        try:
            report = check_world_point(point)
        except InvariantViolation as violation:
            print(violation, file=sys.stderr)
            return 1
        print(
            f"replay ok: {point.spec()} "
            f"(n={report.num_vertices} m={report.num_edges} "
            f"anchors={report.schedule_length}; checks: {', '.join(report.checks)})"
        )
        return 0

    axes = (
        WorldAxes(families=tuple(args.families)) if args.families else WorldAxes()
    )
    count = args.points if args.points is not None else (6 if args.smoke else 24)
    budget = 1 if args.smoke and args.budget == 2 else args.budget
    points = sample_points(count, seed=args.seed, axes=axes)

    rows = run_sweep(points, solvers=args.solvers, budget=budget)
    summary = summarize_sweep(rows)
    print(
        format_table(
            ["family", "solver", "points", "mean_gain", "mean_elapsed_s"],
            [[s[k] for k in ("family", "solver", "points", "mean_gain",
                             "mean_elapsed_s")] for s in summary],
            title=f"world sweep: {len(points)} point(s), seed {args.seed}",
        )
    )
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            json_module.dump(rows, handle, indent=2, sort_keys=True)
        print(f"wrote {args.json_out} ({len(rows)} row(s))")
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as handle:
            handle.write(sweep_rows_to_csv(rows))
        print(f"wrote {args.csv_out} ({len(rows)} row(s))")

    if args.check or args.smoke:
        for point in points:
            try:
                check_world_point(point)
            except InvariantViolation as violation:
                print(violation, file=sys.stderr)
                return 1
        print(f"invariant rig: {len(points)} point(s) checked, 0 violations")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "datasets":
        for name in DATASETS:
            print(dataset_statistics(name))
        return 0

    if args.command == "solvers":
        for name in sorted(_SOLVERS):
            print(f"{name:>6}  {_SOLVERS[name].description}")
        return 0

    if args.command == "solve":
        return _run_solve(args)

    if args.command == "serve":
        return _run_serve(args)

    if args.command == "batch":
        return _run_batch(args)

    if args.command == "cluster":
        return _run_cluster(args)

    if args.command == "world":
        return _run_world(args)

    if args.command == "obs":
        return _run_obs(args)

    if args.command == "experiment":
        _result, text = run_experiment(args.name, get_profile(args.profile))
        print(text)
        return 0

    if args.command == "report":
        print(run_all(get_profile(args.profile), names=args.only))
        return 0

    return 1  # pragma: no cover - argparse enforces valid commands


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
