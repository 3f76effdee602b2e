"""The serving wire format, now a thin veneer over :mod:`repro.api.spec`.

Since ``repro.api`` v1 the canonical request/response pair is
:class:`~repro.api.spec.SolveSpec` / :class:`~repro.api.spec.SolveOutcome`;
this module keeps the wire-facing names the serving layer and its
transports always used:

* :func:`parse_request` / :func:`parse_request_line` decode JSON-lines
  requests into canonical ``SolveSpec``\\ s (strict validation, graph source
  required);
* :func:`result_to_json` / :func:`canonical_result` are re-exported from
  the spec module — one rendering, one byte-identity comparand, shared by
  the CLI, both executors and both transports.

(The PR 4 ``ServiceRequest`` / ``ServiceResponse`` adapters served their
one-release deprecation window and are gone; construct the canonical
types directly.)

Determinism is part of the contract: for a deterministic solver the
``result`` payload of a service response is **byte-identical** (after
:func:`canonical_result` strips wall-clock timings and warmth-dependent
work counters) to a single-shot ``repro-atr solve`` run of the same spec —
regardless of batching, concurrency, session reuse, stored answers, executor
(thread or process) or transport (stdio or TCP).  The test-suite and the
benchmark's ``service`` / ``api`` sections both assert this for every
solver in the registry.
"""

from __future__ import annotations

import json
from typing import Mapping, Optional, Tuple

from repro.api.spec import (
    SolveSpec,
    SpecError,
    canonical_result,
    result_to_json,
)

__all__ = [
    "CONTROL_OPS",
    "ProtocolError",
    "canonical_result",
    "parse_control_line",
    "parse_request",
    "parse_request_line",
    "result_to_json",
]

#: A malformed service request.  Alias of :class:`repro.api.SpecError` —
#: the spec module owns validation now; ``except ProtocolError`` keeps
#: catching exactly what it always caught.
ProtocolError = SpecError


def parse_request(payload: Mapping[str, object], default_id: str = "") -> SolveSpec:
    """Validate a decoded request mapping into a canonical :class:`SolveSpec`.

    Wire requests must name their graph (exactly one of ``dataset``,
    ``edge_list`` or ``edges``); ``schema_version`` is optional on input
    (defaulting to the current version) and rejected when unsupported.
    """
    return SolveSpec.from_json_dict(payload, default_id=default_id).require_source()


def parse_request_line(line: str, default_id: str = "") -> SolveSpec:
    """Parse one JSON line into a canonical :class:`SolveSpec`."""
    return SolveSpec.from_json_line(line, default_id=default_id).require_source()


#: Control operations the line protocol understands alongside solve
#: requests.  A control line is ``{"op": "<name>"}`` — ``op`` cannot
#: collide with solve requests because the spec codec rejects unknown
#: fields, so no valid :class:`SolveSpec` line ever contains it.
#: ``health`` answers the readiness snapshot; ``metrics`` the full
#: telemetry registry (counters + p50/p95/p99 latency histograms).
CONTROL_OPS = ("health", "metrics")


def parse_control_line(line: str) -> Optional[Tuple[str, Mapping[str, object]]]:
    """Recognise a control line; ``None`` means "not a control line".

    Returns ``(op, payload)`` for a JSON object carrying a valid ``op``
    field.  An *invalid* ``op`` value raises :class:`ProtocolError` (the
    client clearly meant a control request); anything else — including
    unparseable JSON — returns ``None`` so the solve-request codec can
    produce its usual, more precise error.
    """
    try:
        payload = json.loads(line)
    except ValueError:
        return None
    if not isinstance(payload, dict) or "op" not in payload:
        return None
    op = payload["op"]
    if op not in CONTROL_OPS:
        raise ProtocolError(
            f"unknown control op {op!r}; expected one of {CONTROL_OPS}"
        )
    return str(op), payload
