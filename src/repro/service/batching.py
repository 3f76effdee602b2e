"""Request batching: JSON-lines files in, JSON-lines files out.

A batch is a file of one request per line (the :mod:`repro.service.protocol`
format).  Running it naively — submitting every line independently — already
works, but interleaved requests against many graphs can thrash an LRU
session cache smaller than the number of distinct graphs.  The batcher
therefore **groups** requests by their session identity (graph source)
and submits each group as one sequential unit
(:meth:`SolveService.submit_sequence`): the first request of a group warms
the session, the rest reuse it back-to-back, and distinct groups still run
concurrently across the worker pool.  Responses are reassembled into input
order, so the output file lines up with the request file regardless of the
scheduling — and, for deterministic solvers, is byte-identical (canonical
form) to running every line through ``repro-atr solve`` one at a time.

Malformed lines do not abort the batch: they produce ``ok=false`` responses
in place, so one typo cannot sink a million-request file.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

from repro.api.spec import SolveOutcome, SolveSpec
from repro.service.protocol import ProtocolError, parse_request_line
from repro.service.scheduler import SolveService

__all__ = [
    "group_requests",
    "read_request_file",
    "run_batch",
    "run_batch_file",
]

PathLike = Union[str, Path]

#: A parsed line: the request, or the parse failure standing in for it.
ParsedLine = Tuple[Optional[SolveSpec], Optional[SolveOutcome]]


def read_request_file(path: PathLike) -> List[ParsedLine]:
    """Parse a JSON-lines request file.

    Blank lines and ``#`` comments are skipped.  Each remaining line yields
    either ``(request, None)`` or — when it fails to parse — ``(None,
    error_response)`` so the batch keeps its 1:1 line correspondence.
    Requests without an explicit ``id`` get ``line-<n>``.
    """
    parsed: List[ParsedLine] = []
    with open(path, "r", encoding="utf-8") as handle:
        for line_number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                parsed.append((parse_request_line(line, f"line-{line_number}"), None))
            except ProtocolError as exc:
                parsed.append(
                    (
                        None,
                        SolveOutcome(
                            request_id=f"line-{line_number}",
                            ok=False,
                            error=str(exc),
                            error_kind="invalid",
                            retryable=False,
                        ),
                    )
                )
    return parsed


def _session_identity(request: SolveSpec) -> Hashable:
    """The grouping key: requests on one graph source group together.

    Purely a scheduling heuristic — computed without loading the graph, so
    two routes to the same graph (dataset name vs file path) may land in
    different groups; they still share the session through the fingerprint
    key once resolved.
    """
    if request.dataset is not None:
        return ("dataset", request.dataset)
    if request.edge_list is not None:
        return ("path", str(Path(request.edge_list).resolve()))
    return ("edges", request.edges)


def group_requests(
    requests: Sequence[SolveSpec],
) -> List[List[int]]:
    """Indices of ``requests`` grouped by session identity, in first-seen order."""
    groups: "OrderedDict[Hashable, List[int]]" = OrderedDict()
    for position, request in enumerate(requests):
        groups.setdefault(_session_identity(request), []).append(position)
    return list(groups.values())


def run_batch(
    service: SolveService, requests: Sequence[SolveSpec]
) -> List[SolveOutcome]:
    """Serve ``requests`` grouped by session; responses keep input order."""
    groups = group_requests(requests)
    futures = [
        service.submit_sequence([requests[i] for i in members]) for members in groups
    ]
    responses: List[Optional[SolveOutcome]] = [None] * len(requests)
    for members, future in zip(groups, futures):
        try:
            group_responses = future.result()
        except Exception as exc:  # noqa: BLE001 - serving boundary
            # The service's contract is "never raises", but a group future
            # is still a future — if one dies anyway (coordinator bug,
            # interpreter teardown), fail its members, not the whole batch.
            group_responses = [
                SolveOutcome(
                    request_id=requests[i].request_id,
                    ok=False,
                    error=f"internal error: {type(exc).__name__}: {exc}",
                    error_kind="internal",
                    retryable=False,
                )
                for i in members
            ]
        for position, response in zip(members, group_responses):
            responses[position] = response
    assert all(response is not None for response in responses)
    return responses  # type: ignore[return-value]


def run_batch_file(
    service: SolveService,
    input_path: PathLike,
    output_path: PathLike,
) -> Dict[str, object]:
    """Run a JSON-lines request file and write the JSON-lines response file.

    Returns a summary: request/ok/error counts, elapsed wall time and the
    service's cache statistics after the run.
    """
    started = time.perf_counter()
    parsed = read_request_file(input_path)
    requests = [request for request, _err in parsed if request is not None]
    solved = iter(run_batch(service, requests))
    responses = [
        error if request is None else next(solved) for request, error in parsed
    ]
    output_path = Path(output_path)
    with open(output_path, "w", encoding="utf-8") as handle:
        for response in responses:
            assert response is not None
            handle.write(response.to_json_line() + "\n")
    ok = sum(1 for response in responses if response is not None and response.ok)
    return {
        "requests": len(responses),
        "ok": ok,
        "errors": len(responses) - ok,
        "elapsed_s": round(time.perf_counter() - started, 6),
        "output": str(output_path),
        "service": service.stats(),
    }
