"""The canonical solve API: :class:`SolveSpec` in, :class:`SolveOutcome` out.

Before this module existed the codebase had three divergent ingress shapes
for the same operation — CLI argparse namespaces, the engine's
``SolveRequest`` and the service's JSON-lines ``ServiceRequest`` — each with
its own validation and parameter plumbing.  ``repro.api`` v1 consolidates
them into one **versioned, typed, serializable** pair:

* :class:`SolveSpec` — everything needed to reproduce one solve: the graph
  source (dataset name, edge-list path or inline edges — or none, for specs
  bound to a caller-supplied graph), the solver name, the budget, solver
  parameters and engine-construction options.  Frozen, strictly validated,
  and round-trippable through **canonical JSON** and **pickle** — the pickle
  path is what lets :class:`~repro.service.scheduler.SolveService` ship
  specs to ``ProcessPoolExecutor`` workers for true cross-graph parallelism.
* :class:`SolveOutcome` — the result of serving one spec: the machine-
  readable solve payload (or an error), the graph fingerprint, cache routing
  metadata and wall-clock timings.  Its :meth:`~SolveOutcome.canonical` form
  (volatile fields stripped) is the byte-identity comparand shared by every
  execution path: direct engine solves, warm sessions, thread and process
  executors, stdio and TCP transports.

Both carry ``schema_version`` (currently ``1``); a payload from a newer
schema fails loudly instead of being half-understood.

(The pre-v1 ``SolveRequest`` / ``ServiceRequest`` adapters served their
one-release deprecation window and are gone; construct :class:`SolveSpec`
directly.)

This module deliberately imports nothing from :mod:`repro.core` or
:mod:`repro.service` (only :mod:`repro.utils`), so the engine and every
solver module can depend on the spec type without import cycles.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass, field, fields
from typing import Dict, Mapping, Optional, Tuple

from repro.utils.errors import ReproError

__all__ = [
    "SCHEMA_VERSION",
    "ENGINE_OPTION_FIELDS",
    "ERROR_KINDS",
    "SpecError",
    "SolveSpec",
    "SolveOutcome",
    "parse_spec",
    "parse_spec_line",
    "result_to_json",
    "canonical_result",
]

#: The wire/schema version this build speaks.  Bump on any incompatible
#: change to the :class:`SolveSpec` / :class:`SolveOutcome` JSON layout.
SCHEMA_VERSION = 1

#: Engine-construction options a spec may set.  They are part of the
#: serving layer's session cache key; both knobs change timings only, never
#: results (asserted by the engine equivalence tests).
ENGINE_OPTION_FIELDS = ("tree_mode", "full_peel_threshold")

#: The structured error taxonomy carried by failed :class:`SolveOutcome`\ s
#: (``error_kind``).  ``timeout`` / ``overloaded`` / ``worker_crash`` are
#: serving faults a client may retry; ``invalid`` is a malformed or
#: unservable request (re-sending it cannot succeed); ``internal`` is a bug
#: surfaced at the serving boundary.  Defined here (not in
#: :mod:`repro.service.resilience`) so the wire types stay dependency-free.
ERROR_KINDS = ("timeout", "overloaded", "worker_crash", "invalid", "internal")

#: Top-level JSON fields of a serialized spec (anything else fails loudly —
#: a typo'd field silently running with defaults is how batch results go
#: subtly wrong).
_SPEC_JSON_FIELDS = (
    "schema_version",
    "id",
    "dataset",
    "edge_list",
    "edges",
    "algorithm",
    "budget",
    "params",
    "initial_anchors",
    "engine",
    "deadline_s",
    "trace_id",
)


class SpecError(ReproError):
    """A malformed solve spec (unknown field, missing graph source, ...)."""


def _freeze(value: object) -> object:
    """Recursively turn lists/tuples into tuples (JSON arrays round-trip)."""
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(item) for item in value)
    return value


def _thaw(value: object) -> object:
    """Inverse of :func:`_freeze` for JSON rendering (tuples -> lists)."""
    if isinstance(value, tuple):
        return [_thaw(item) for item in value]
    return value


def _params_text(params: Tuple[Tuple[str, object], ...]) -> str:
    """The params as deterministic text for :meth:`SolveSpec.signature`.

    JSON with sorted keys, except when a mapping has keys JSON cannot encode
    (a tuple-keyed ``route_sizes`` from the Python API): then the ``repr`` of
    an order-free form, which starts with ``(`` and so never equals JSON
    text (which starts with ``[``).
    """
    try:
        return json.dumps(_thaw(params), sort_keys=True, default=repr)
    except TypeError:
        return repr(_order_free(params))


def _order_free(value: object) -> object:
    """``value`` with every mapping as ``("mapping", items sorted by key repr)``."""
    if isinstance(value, Mapping):
        items = ((repr(key), _order_free(entry)) for key, entry in value.items())
        return ("mapping", tuple(sorted(items, key=lambda item: item[0])))
    if isinstance(value, (list, tuple)):
        return tuple(_order_free(item) for item in value)
    return value


def _edge_pairs(value: object, field_name: str) -> Tuple[Tuple[object, object], ...]:
    if not isinstance(value, (list, tuple)):
        raise SpecError(f"{field_name} must be a list of [u, v] pairs")
    pairs = []
    for pair in value:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise SpecError(f"{field_name} entries must be [u, v] pairs, got {pair!r}")
        pairs.append((_freeze(pair[0]), _freeze(pair[1])))
    return tuple(pairs)


def _normalized_items(
    value: object, field_name: str
) -> Tuple[Tuple[str, object], ...]:
    """A mapping (or tuple of pairs) as a sorted, frozen tuple of items."""
    if isinstance(value, Mapping):
        items = value.items()
    elif isinstance(value, (list, tuple)):
        try:
            items = dict(value).items()
        except (TypeError, ValueError) as exc:
            raise SpecError(f"{field_name} must be a mapping") from exc
    else:
        raise SpecError(f"{field_name} must be a mapping, got {value!r}")
    normalized = []
    for key, entry in items:
        if not isinstance(key, str):
            raise SpecError(f"{field_name} keys must be strings, got {key!r}")
        normalized.append((key, _freeze(entry)))
    return tuple(sorted(normalized, key=lambda item: item[0]))


@dataclass(frozen=True, eq=False)
class SolveSpec:
    """One canonical, versioned, serializable solve request.

    Exactly one graph source may be set: ``dataset`` (a registry name),
    ``edge_list`` (a SNAP file path, loaded through the ``.npz`` pipeline)
    or ``edges`` (an inline edge list).  A spec with **no** source is
    *unbound* — usable against a caller-supplied graph (the engine's and
    :class:`~repro.api.session.Session`'s native mode); the serving layer
    requires a source (:meth:`require_source`).

    ``params`` and ``engine`` accept mappings and are normalised to sorted
    tuples of items, so two specs built from differently-ordered dicts are
    equal, hash alike, and render the same canonical JSON.  Engine options
    are restricted to :data:`ENGINE_OPTION_FIELDS` with scalar values (they
    feed the hashable session cache key).

    Serialization contract (the test-suite round-trips randomized specs):

    * ``spec == SolveSpec.from_json_dict(json.loads(spec.canonical_json()))``
      for every JSON-typed spec;
    * ``spec == pickle.loads(pickle.dumps(spec))`` always — including specs
      whose params carry non-JSON values (enums), which the JSON path
      rejects loudly instead of mangling.
    """

    algorithm: str = "gas"
    budget: int = 5
    params: Tuple[Tuple[str, object], ...] = ()
    initial_anchors: Tuple[Tuple[object, object], ...] = ()
    dataset: Optional[str] = None
    edge_list: Optional[str] = None
    edges: Optional[Tuple[Tuple[object, object], ...]] = None
    engine: Tuple[Tuple[str, object], ...] = ()
    request_id: str = ""
    deadline_s: Optional[float] = None
    trace_id: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        set_ = object.__setattr__
        if self.schema_version != SCHEMA_VERSION:
            raise SpecError(
                f"unsupported schema_version {self.schema_version!r}; "
                f"this build speaks v{SCHEMA_VERSION}"
            )
        if not isinstance(self.algorithm, str) or not self.algorithm:
            raise SpecError(f"algorithm must be a non-empty string, got {self.algorithm!r}")
        if not isinstance(self.budget, int) or isinstance(self.budget, bool):
            raise SpecError(f"budget must be an integer, got {self.budget!r}")
        if not isinstance(self.request_id, str):
            raise SpecError(f"request id must be a string, got {self.request_id!r}")
        if self.deadline_s is not None:
            if (
                not isinstance(self.deadline_s, (int, float))
                or isinstance(self.deadline_s, bool)
                or self.deadline_s <= 0
            ):
                raise SpecError(
                    f"deadline_s must be a positive number of seconds, "
                    f"got {self.deadline_s!r}"
                )
            set_(self, "deadline_s", float(self.deadline_s))
        if self.trace_id is not None and (
            not isinstance(self.trace_id, str) or not self.trace_id
        ):
            raise SpecError(
                f"trace_id must be a non-empty string, got {self.trace_id!r}"
            )
        sources = [s for s in (self.dataset, self.edge_list, self.edges) if s is not None]
        if len(sources) > 1:
            raise SpecError(
                "exactly one graph source required: dataset, edge_list or edges"
            )
        if self.dataset is not None and not isinstance(self.dataset, str):
            raise SpecError(f"dataset must be a string, got {self.dataset!r}")
        if self.edge_list is not None and not isinstance(self.edge_list, str):
            raise SpecError(f"edge_list must be a string, got {self.edge_list!r}")
        if self.edges is not None:
            set_(self, "edges", _edge_pairs(self.edges, "edges"))
        set_(self, "initial_anchors", _edge_pairs(self.initial_anchors, "initial_anchors"))
        set_(self, "params", _normalized_items(self.params, "params"))
        set_(self, "engine", _normalized_items(self.engine, "engine"))
        unknown = {key for key, _v in self.engine} - set(ENGINE_OPTION_FIELDS)
        if unknown:
            raise SpecError(
                f"unknown engine option(s): {', '.join(sorted(unknown))}; "
                f"accepted: {', '.join(ENGINE_OPTION_FIELDS)}"
            )
        for option, value in self.engine:
            # Engine options feed the (hashable) session cache key.
            if not isinstance(value, (str, int, float, bool)) and value is not None:
                raise SpecError(
                    f"engine option {option!r} must be a scalar, got {value!r}"
                )

    # -- equality spans subclasses ------------------------------------------
    def _identity(self) -> Tuple[object, ...]:
        return tuple(getattr(self, spec_field.name) for spec_field in fields(SolveSpec))

    def __eq__(self, other: object) -> bool:
        # Deliberately *not* the dataclass exact-class equality: adapters
        # subclassing SolveSpec must compare equal to the spec they wrap.
        if not isinstance(other, SolveSpec):
            return NotImplemented
        return self._identity() == other._identity()

    def __hash__(self) -> int:
        return hash(self._identity())

    # -- parameter access ---------------------------------------------------
    def param(self, name: str, default: object = None) -> object:
        return dict(self.params).get(name, default)

    @property
    def params_map(self) -> Dict[str, object]:
        """The solver parameters as a plain dict."""
        return dict(self.params)

    @property
    def engine_map(self) -> Dict[str, object]:
        """The engine-construction options as a plain dict."""
        return dict(self.engine)

    def engine_key(self) -> Tuple[Tuple[str, object], ...]:
        """The engine options as a stable, hashable cache-key component."""
        return self.engine

    def reject_initial_anchors(self, solver_name: str) -> None:
        """Fail fast for solvers that cannot honour pre-set anchors.

        Silently ignoring ``initial_anchors`` would return a result computed
        on a different problem than the caller asked for.
        """
        if self.initial_anchors:
            from repro.utils.errors import InvalidParameterError

            raise InvalidParameterError(
                f"solver {solver_name!r} does not support initial_anchors"
            )

    # -- graph source -------------------------------------------------------
    @property
    def has_source(self) -> bool:
        return (
            self.dataset is not None
            or self.edge_list is not None
            or self.edges is not None
        )

    def require_source(self) -> "SolveSpec":
        """Raise unless the spec names its graph (the serving-layer contract)."""
        if not self.has_source:
            raise SpecError(
                "exactly one graph source required: dataset, edge_list or edges"
            )
        return self

    def source_label(self) -> str:
        """Human-readable graph source (for logs and error messages)."""
        if self.dataset is not None:
            return f"dataset:{self.dataset}"
        if self.edge_list is not None:
            return f"edge_list:{self.edge_list}"
        if self.edges is not None:
            return f"edges:{len(self.edges)}"
        return "unbound"

    # -- identity for caches ------------------------------------------------
    def signature(self) -> Tuple[object, ...]:
        """A stable, hashable digest of everything that determines the result.

        Excludes ``request_id`` (two ids asking the same question must share
        one cache slot) but **includes** the engine options — built-in
        solvers provably ignore them for results, but a third-party solver
        could observe them, so cache layers stay conservative.  The graph is
        identified separately (by fingerprint), so the source fields are
        excluded too: two routes to the same graph share cached results.
        ``deadline_s`` is also excluded: it bounds *serving*, never the
        result — a cached answer is served instantly and therefore always
        within any deadline, so deadline'd and deadline-free repeats of one
        question share a slot (and old specs keep their exact signature).
        ``trace_id`` is excluded for the same reason: it labels how a
        request was *served* (observability), never what it computed.
        """
        return (
            self.schema_version,
            self.algorithm,
            self.budget,
            _params_text(self.params),
            self.initial_anchors,
            self.engine,
        )

    # -- serialization ------------------------------------------------------
    def to_json_dict(self) -> dict:
        """The JSON-lines rendering (inverse of :func:`parse_spec`)."""
        payload: Dict[str, object] = {
            "schema_version": self.schema_version,
            "id": self.request_id,
        }
        if self.dataset is not None:
            payload["dataset"] = self.dataset
        if self.edge_list is not None:
            payload["edge_list"] = self.edge_list
        if self.edges is not None:
            payload["edges"] = _thaw(self.edges)
        payload["algorithm"] = self.algorithm
        payload["budget"] = self.budget
        if self.params:
            payload["params"] = {key: _thaw(value) for key, value in self.params}
        if self.initial_anchors:
            payload["initial_anchors"] = _thaw(self.initial_anchors)
        if self.engine:
            payload["engine"] = dict(self.engine)
        if self.deadline_s is not None:
            # Emitted only when set, so pre-deadline specs render the exact
            # bytes they always did (the schema-compatibility contract).
            payload["deadline_s"] = self.deadline_s
        if self.trace_id is not None:
            # Same contract as deadline_s: absent means absent bytes.
            payload["trace_id"] = self.trace_id
        return payload

    def canonical_json(self) -> str:
        """Canonical one-line JSON: sorted keys, minimal whitespace.

        Two equal specs always render byte-identical canonical JSON.  A spec
        whose params carry non-JSON values (e.g. enums passed by in-process
        callers) raises :class:`SpecError` — such specs are picklable but
        not wire-serializable, by design.
        """
        try:
            return json.dumps(
                self.to_json_dict(), sort_keys=True, separators=(",", ":")
            )
        except (TypeError, ValueError) as exc:
            raise SpecError(f"spec is not JSON-serializable: {exc}") from exc

    @classmethod
    def from_json_dict(
        cls, payload: Mapping[str, object], default_id: str = ""
    ) -> "SolveSpec":
        """Validate a decoded JSON mapping into a spec (strict fields)."""
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"request must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - set(_SPEC_JSON_FIELDS)
        if unknown:
            raise SpecError(
                f"unknown request field(s): {', '.join(sorted(map(str, unknown)))}; "
                f"accepted: {', '.join(_SPEC_JSON_FIELDS)}"
            )
        params = payload.get("params", {})
        if not isinstance(params, Mapping):
            raise SpecError("params must be a JSON object")
        engine = payload.get("engine", {})
        if not isinstance(engine, Mapping):
            raise SpecError("engine must be a JSON object")
        raw_id = payload.get("id")
        # Presence, not truthiness: an explicit id of 0 must stay "0".
        request_id = default_id if raw_id is None or raw_id == "" else str(raw_id)
        edges = payload.get("edges")
        version = payload.get("schema_version", SCHEMA_VERSION)
        if not isinstance(version, int) or isinstance(version, bool):
            raise SpecError(f"schema_version must be an integer, got {version!r}")
        return cls(
            schema_version=version,
            request_id=request_id,
            dataset=payload.get("dataset"),  # type: ignore[arg-type]
            edge_list=payload.get("edge_list"),  # type: ignore[arg-type]
            edges=_edge_pairs(edges, "edges") if edges is not None else None,
            algorithm=str(payload.get("algorithm", "gas")),
            budget=payload.get("budget", 5),  # type: ignore[arg-type]
            params=params,
            initial_anchors=payload.get("initial_anchors", ()),
            engine=engine,
            deadline_s=payload.get("deadline_s"),  # type: ignore[arg-type]
            trace_id=payload.get("trace_id"),  # type: ignore[arg-type]
        )

    @classmethod
    def from_json_line(cls, line: str, default_id: str = "") -> "SolveSpec":
        """Parse one JSON line into a spec."""
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise SpecError(f"invalid JSON: {exc}") from exc
        return cls.from_json_dict(payload, default_id=default_id)

    # Back-compat spelling used by the ServiceRequest era.
    def to_dict(self) -> dict:
        return self.to_json_dict()


def parse_spec(payload: Mapping[str, object], default_id: str = "") -> SolveSpec:
    """Module-level alias of :meth:`SolveSpec.from_json_dict` + source check."""
    return SolveSpec.from_json_dict(payload, default_id=default_id).require_source()


def parse_spec_line(line: str, default_id: str = "") -> SolveSpec:
    """Module-level alias of :meth:`SolveSpec.from_json_line` + source check."""
    return SolveSpec.from_json_line(line, default_id=default_id).require_source()


# ---------------------------------------------------------------------------
# Result rendering (shared by the CLI, the service and every outcome)
# ---------------------------------------------------------------------------
def _json_safe(value: object) -> object:
    """Recursively convert a result payload into JSON-serialisable types."""
    if isinstance(value, dict):
        return {str(key): _json_safe(entry) for key, entry in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_json_safe(entry) for entry in items]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def result_to_json(result) -> dict:
    """Machine-readable rendering of an :class:`~repro.core.result.AnchorResult`.

    This is the single rendering shared by ``repro-atr solve --format json``,
    every service response and every :class:`SolveOutcome` — one code path
    is what makes the byte-identity guarantee checkable at all.
    """
    return {
        "algorithm": result.algorithm,
        "budget": result.budget,
        "anchors": [list(edge) for edge in result.anchors],
        "gain": result.gain,
        "per_round_gain": list(result.per_round_gain),
        "followers": sorted([list(edge) for edge in result.followers]),
        "follower_count": len(result.followers),
        "gain_by_trussness": {str(k): v for k, v in result.gain_by_trussness.items()},
        "timings": {
            "elapsed_seconds": result.elapsed_seconds,
            "cumulative_seconds_per_round": list(
                result.extra.get("cumulative_seconds_per_round", [])
            ),
        },
        "extra": _json_safe(result.extra),
    }


#: ``extra`` entries stripped by :func:`canonical_result`: wall-clock splits
#: and work-rate counters.  The latter legitimately depend on session warmth
#: (a warm engine's persisted baseline follower cache makes GAS's first
#: round recompute nothing), so they are serving metadata — like timings —
#: not solution content.
_VOLATILE_EXTRA_FIELDS = (
    "cumulative_seconds_per_round",
    "recomputed_entries_per_round",
)


def canonical_result(result_payload: Mapping[str, object]) -> dict:
    """A :func:`result_to_json` payload with every volatile field removed.

    Two runs of a deterministic solver differ only in timings and
    cache-warmth-dependent work counters; comparing the canonical forms for
    byte equality (``json.dumps(..., sort_keys=True)``) is the determinism
    check shared by the service tests, the benchmarks and the transport /
    executor byte-identity grid.
    """
    canonical = copy.deepcopy(dict(result_payload))
    canonical.pop("timings", None)
    extra = canonical.get("extra")
    if isinstance(extra, dict):
        for volatile in _VOLATILE_EXTRA_FIELDS:
            extra.pop(volatile, None)
    return canonical


# ---------------------------------------------------------------------------
# Outcomes
# ---------------------------------------------------------------------------
#: Top-level JSON fields of a serialized outcome.
_OUTCOME_JSON_FIELDS = (
    "schema_version",
    "id",
    "ok",
    "error",
    "error_kind",
    "retryable",
    "fingerprint",
    "cache",
    "timings",
    "result",
)


@dataclass(frozen=True, eq=False)
class SolveOutcome:
    """The outcome of serving one :class:`SolveSpec`.

    ``result`` is the :func:`result_to_json` payload on success (``None`` on
    failure, with ``error`` set); failed outcomes additionally carry the
    structured taxonomy — ``error_kind`` (one of :data:`ERROR_KINDS`) and
    ``retryable`` — so clients can distinguish a shed or timed-out request
    (safe to retry) from a malformed one (never retry); ``cache`` records
    how the caches served the request (``session`` is ``"hit"``, ``"miss"``
    or ``"bypass"``, ``store`` flags a serving-layer result-store answer,
    ``memo`` a :class:`~repro.api.session.Session` memo answer);
    ``timings`` splits queueing from solving.
    Frozen and picklable, so process-executor workers can hand outcomes
    back across process boundaries unchanged.
    """

    request_id: str = ""
    ok: bool = True
    result: Optional[dict] = None
    error: Optional[str] = None
    error_kind: Optional[str] = None
    retryable: Optional[bool] = None
    fingerprint: Optional[str] = None
    cache: Dict[str, object] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self) -> None:
        if self.schema_version != SCHEMA_VERSION:
            raise SpecError(
                f"unsupported schema_version {self.schema_version!r}; "
                f"this build speaks v{SCHEMA_VERSION}"
            )
        if self.error_kind is not None and self.error_kind not in ERROR_KINDS:
            raise SpecError(
                f"unknown error_kind {self.error_kind!r}; "
                f"expected one of {ERROR_KINDS}"
            )

    def __eq__(self, other: object) -> bool:
        # Not the dataclass exact-class equality: subclasses must compare
        # equal to the outcome they stand for.
        if not isinstance(other, SolveOutcome):
            return NotImplemented
        return tuple(
            getattr(self, outcome_field.name) for outcome_field in fields(SolveOutcome)
        ) == tuple(
            getattr(other, outcome_field.name) for outcome_field in fields(SolveOutcome)
        )

    def to_json_dict(self) -> dict:
        payload = {
            "schema_version": self.schema_version,
            "id": self.request_id,
            "ok": self.ok,
            "error": self.error,
            "fingerprint": self.fingerprint,
            "cache": dict(self.cache),
            "timings": dict(self.timings),
            "result": self.result,
        }
        # Taxonomy fields are emitted only when classified, so outcomes of
        # taxonomy-unaware producers (and every success) keep their exact
        # pre-resilience byte shape.
        if self.error_kind is not None:
            payload["error_kind"] = self.error_kind
            payload["retryable"] = bool(self.retryable)
        return payload

    # Back-compat spelling used by the ServiceResponse era.
    def to_dict(self) -> dict:
        return self.to_json_dict()

    def to_json_line(self) -> str:
        """One-line JSON rendering (the ``serve`` / ``batch`` output format)."""
        return json.dumps(self.to_json_dict(), sort_keys=True)

    @classmethod
    def from_json_dict(cls, payload: Mapping[str, object]) -> "SolveOutcome":
        """Decode a serialized outcome (strict fields)."""
        if not isinstance(payload, Mapping):
            raise SpecError(
                f"outcome must be a JSON object, got {type(payload).__name__}"
            )
        unknown = set(payload) - set(_OUTCOME_JSON_FIELDS)
        if unknown:
            raise SpecError(
                f"unknown outcome field(s): {', '.join(sorted(map(str, unknown)))}"
            )
        return cls(
            schema_version=payload.get("schema_version", SCHEMA_VERSION),  # type: ignore[arg-type]
            request_id=str(payload.get("id", "")),
            ok=bool(payload.get("ok", False)),
            error=payload.get("error"),  # type: ignore[arg-type]
            error_kind=payload.get("error_kind"),  # type: ignore[arg-type]
            retryable=payload.get("retryable"),  # type: ignore[arg-type]
            fingerprint=payload.get("fingerprint"),  # type: ignore[arg-type]
            cache=dict(payload.get("cache", {})),  # type: ignore[arg-type]
            timings=dict(payload.get("timings", {})),  # type: ignore[arg-type]
            result=payload.get("result"),  # type: ignore[arg-type]
        )

    def canonical(self) -> dict:
        """The deterministic core: id, status and the canonical result.

        Serving metadata (cache route, timings, warmth-dependent work
        counters) legitimately differs between a warm and a cold run, a
        thread and a process executor, a stdio and a TCP transport; this is
        the part that must not.  The error taxonomy is part of the core —
        a shed request must classify as ``overloaded`` on every transport —
        and is included only when set, so pre-taxonomy canonical forms are
        unchanged.
        """
        canonical = {
            "id": self.request_id,
            "ok": self.ok,
            "error": self.error,
            "result": canonical_result(self.result) if self.result is not None else None,
        }
        if self.error_kind is not None:
            canonical["error_kind"] = self.error_kind
            canonical["retryable"] = bool(self.retryable)
        return canonical

    def raise_for_error(self) -> "SolveOutcome":
        """Raise :class:`~repro.utils.errors.ReproError` on a failed outcome."""
        if not self.ok:
            raise ReproError(self.error or "solve failed")
        return self
