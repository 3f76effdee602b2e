#!/usr/bin/env python
"""Minimal TCP client for the serve loop's JSON-lines protocol.

Sends a request file (one JSON ``SolveSpec`` per line; ``#`` comments and
blank lines pass through untouched and are skipped server-side) to a
``repro-atr serve --transport tcp`` server — or a ``repro-atr cluster``
router, same protocol — and writes the response lines to a file or
stdout, in request order.  Used by the CI ``service-smoke`` and
``cluster-smoke`` jobs and handy for poking a running server by hand::

    PYTHONPATH=src python scripts/service_client.py \\
        --host 127.0.0.1 --port 7711 \\
        --requests requests.jsonl --output results.jsonl

``--op health`` / ``--op metrics`` sends a single control line instead of
a request file (the ``{"op": ...}`` probes the serve loop answers in
place), so the same script scrapes a live server's telemetry::

    PYTHONPATH=src python scripts/service_client.py \\
        --host 127.0.0.1 --port 7711 --op metrics

``--repeat K`` sends the request file K times over (repeats exercise the
warm-session / result-store path), and ``--concurrency C`` spreads
those K copies across C parallel connections — a quick multi-request
probe without the full bench harness.  A one-line summary (requests, ok
count, elapsed, req/s) goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.service.transports import request_lines_over_tcp  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument(
        "--requests", default=None, help="JSON-lines request file to send"
    )
    parser.add_argument(
        "--op",
        choices=("health", "metrics"),
        default=None,
        help="send one control line instead of a request file",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=1,
        metavar="K",
        help="send the request file K times over (default: 1)",
    )
    parser.add_argument(
        "--concurrency",
        type=int,
        default=1,
        metavar="C",
        help="parallel connections to spread the repeats across (default: 1)",
    )
    parser.add_argument(
        "--output", default=None, help="response file (default: stdout)"
    )
    parser.add_argument(
        "--timeout", type=float, default=120.0, help="socket timeout in seconds"
    )
    args = parser.parse_args(argv)

    if (args.requests is None) == (args.op is None):
        parser.error("provide exactly one of --requests or --op")
    if args.repeat < 1 or args.concurrency < 1:
        parser.error("--repeat and --concurrency must be >= 1")

    if args.op is not None:
        batches = [[json.dumps({"op": args.op})]]
    else:
        lines = Path(args.requests).read_text(encoding="utf-8").splitlines()
        batches = [list(lines) for _ in range(args.repeat)]

    started = time.perf_counter()
    if len(batches) == 1 or args.concurrency == 1:
        collected = [
            request_lines_over_tcp(args.host, args.port, batch, timeout=args.timeout)
            for batch in batches
        ]
    else:
        # Each worker opens its own connection per batch; responses keep
        # batch order (the list below), and request order within a batch
        # (the serve loop's contract).
        with ThreadPoolExecutor(max_workers=args.concurrency) as pool:
            collected = list(
                pool.map(
                    lambda batch: request_lines_over_tcp(
                        args.host, args.port, batch, timeout=args.timeout
                    ),
                    batches,
                )
            )
    elapsed = time.perf_counter() - started

    responses = [line for batch in collected for line in batch]
    ok = 0
    for line in responses:
        try:
            if json.loads(line).get("ok", True):
                ok += 1
        except ValueError:
            pass
    payload = "\n".join(responses) + ("\n" if responses else "")
    if args.output is None:
        sys.stdout.write(payload)
    else:
        Path(args.output).write_text(payload, encoding="utf-8")
        print(f"wrote {args.output}: {len(responses)} response line(s)")
    rate = len(responses) / elapsed if elapsed > 0 else float("inf")
    print(
        f"{len(responses)} response(s), {ok} ok, in {elapsed:.3f}s "
        f"({rate:.1f} req/s, repeat={args.repeat}, "
        f"concurrency={args.concurrency})",
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
