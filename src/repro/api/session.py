"""Python-caller facade of ``repro.api``: :class:`Session` and :func:`solve`.

A :class:`Session` binds one resolved graph to one warm
:class:`~repro.core.engine.SolverEngine` and serves
:class:`~repro.api.spec.SolveSpec`\\ s against it:

* repeated solves reuse the engine's expensive session assets (the
  :class:`~repro.graph.index.GraphIndex`, the baseline decomposition, and —
  for GAS — the persisted baseline follower cache);
* deterministic specs are memoised per session under the same gating rule
  as the serving layer (non-``randomized`` solver, or an explicit ``seed``);
* failures come back as ``ok=False`` :class:`~repro.api.spec.SolveOutcome`\\ s
  from :meth:`Session.solve` (the serving-boundary shape), while
  :meth:`Session.solve_result` raises and returns the raw
  :class:`~repro.core.result.AnchorResult` for callers who prefer
  exceptions.

:func:`solve` is the one-shot module-level entry point (``repro.api.solve``)
— build a spec (or pass spec fields as keywords), resolve its graph, solve,
return the outcome.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

from repro.api.resolve import resolve_graph
from repro.api.spec import SolveOutcome, SolveSpec, SpecError, result_to_json
from repro.core.engine import SolverEngine, get_solver
from repro.core.result import AnchorResult
from repro.datasets import graph_fingerprint
from repro.graph.graph import Graph
from repro.utils.errors import ReproError
from repro.utils.lru import DEFAULT_MEMO_LIMIT, PayloadCache

__all__ = ["Session", "solve"]


def _build_spec(spec: Optional[SolveSpec], fields: Dict[str, object]) -> SolveSpec:
    if spec is None:
        return SolveSpec(**fields)  # type: ignore[arg-type]
    if fields:
        raise SpecError("pass either a SolveSpec or spec fields, not both")
    if not isinstance(spec, SolveSpec):
        raise SpecError(f"expected a SolveSpec, got {type(spec).__name__}")
    return spec


def memoizable(spec: SolveSpec) -> bool:
    """Deterministic specs only: a cached answer must equal a re-run.

    The shared gating rule of every cache layer (session memo, shared
    result store): the solver is not marked ``randomized``, or the spec
    carries an explicit ``seed``.
    """
    solver = get_solver(spec.algorithm)
    return (not solver.randomized) or (spec.param("seed") is not None)


class Session:
    """One resolved graph, one warm engine, many solves.

    Construct from exactly one source::

        session = Session(dataset="college")
        session = Session(graph=my_graph)
        session = Session(edge_list="data/roadnet.txt")
        session = Session(edges=[(1, 2), (2, 3), (1, 3)])

    A spec's graph source, when present, must match the session's source
    (same dataset name / path / edge tuple) — solving a spec that names a
    different graph on this session would silently answer the wrong
    question.  Unbound specs (no source) always apply.
    """

    def __init__(
        self,
        graph: Optional[Graph] = None,
        dataset: Optional[str] = None,
        edge_list: Optional[str] = None,
        edges: Optional[Tuple[Tuple[object, object], ...]] = None,
        memoize: bool = True,
    ) -> None:
        sources = [s for s in (graph, dataset, edge_list, edges) if s is not None]
        if len(sources) != 1:
            raise SpecError(
                "exactly one session source required: graph, dataset, "
                "edge_list or edges"
            )
        self._source = SolveSpec(dataset=dataset, edge_list=edge_list, edges=edges) if graph is None else None
        if graph is not None:
            self.graph = graph
            self.fingerprint = graph_fingerprint(graph)
        else:
            assert self._source is not None
            self.graph, self.fingerprint = resolve_graph(self._source)
        self.engine = SolverEngine(self.graph)
        self.memoize = memoize
        # Same memo primitive as the serving layer's per-session memo and
        # result store (one definition of the deepcopy-LRU semantics);
        # sessions are single-caller objects, so no lock.
        self._memo = PayloadCache(DEFAULT_MEMO_LIMIT if memoize else 0)

    # ------------------------------------------------------------------
    def _check_spec(self, spec: SolveSpec) -> None:
        if spec.has_source and self._source is not None:
            if (
                spec.dataset != self._source.dataset
                or spec.edge_list != self._source.edge_list
                or spec.edges != self._source.edges
            ):
                raise SpecError(
                    f"spec names {spec.source_label()} but this session is "
                    f"bound to {self._source.source_label()}"
                )
        elif spec.has_source:
            # Session built from a caller-supplied graph: verify by content.
            _graph, fingerprint = resolve_graph(spec)
            if fingerprint != self.fingerprint:
                raise SpecError(
                    f"spec names {spec.source_label()}, which does not match "
                    "this session's graph"
                )

    def solve_result(
        self, spec: Optional[SolveSpec] = None, **spec_fields: object
    ) -> AnchorResult:
        """Solve and return the raw :class:`AnchorResult` (raises on error)."""
        spec = _build_spec(spec, spec_fields)
        self._check_spec(spec)
        return self.engine.solve_spec(spec)

    def solve(
        self, spec: Optional[SolveSpec] = None, **spec_fields: object
    ) -> SolveOutcome:
        """Solve and return a :class:`SolveOutcome` (never raises for a bad spec)."""
        started = time.perf_counter()
        try:
            spec = _build_spec(spec, spec_fields)
            self._check_spec(spec)
            memo_ok = self.memoize and memoizable(spec)
            signature = (self.fingerprint, spec.signature()) if memo_ok else None
            payload = self._memo.get(signature) if memo_ok else None
            memo_hit = payload is not None
            if payload is None:
                result = self.engine.solve_spec(spec)
                payload = result_to_json(result)
                if memo_ok:
                    self._memo.put(signature, payload)
            return SolveOutcome(
                request_id=spec.request_id,
                ok=True,
                result=payload,
                fingerprint=self.fingerprint,
                cache={
                    "session": "bound",
                    "memo": memo_hit,
                    "engine_solve_count": self.engine.solve_count,
                },
                timings={"solve_s": round(time.perf_counter() - started, 6)},
            )
        except ReproError as exc:
            return SolveOutcome(
                request_id=spec.request_id if isinstance(spec, SolveSpec) else "",
                ok=False,
                error=str(exc),
                fingerprint=self.fingerprint,
                timings={"solve_s": round(time.perf_counter() - started, 6)},
            )

    def info(self) -> Dict[str, object]:
        """Session diagnostics: fingerprint, memo counters, engine lifetime stats."""
        payload = dict(self.engine.session_info())
        payload["fingerprint"] = self.fingerprint
        payload["memo_hits"] = self.memo_hits
        payload["memo_size"] = len(self._memo)
        return payload

    @property
    def memo_hits(self) -> int:
        return self._memo.hits


def solve(
    spec: Optional[SolveSpec] = None,
    graph: Optional[Graph] = None,
    **spec_fields: object,
) -> SolveOutcome:
    """One-shot canonical solve: ``repro.api.solve``.

    Pass a ready :class:`SolveSpec`, or spec fields as keywords::

        outcome = repro.api.solve(dataset="college", algorithm="gas", budget=5)
        outcome = repro.api.solve(my_spec)
        outcome = repro.api.solve(graph=g, algorithm="base", budget=2)

    ``graph`` solves an *unbound* spec against a caller-supplied graph.
    Returns a :class:`SolveOutcome`; failures come back as ``ok=False``
    outcomes (use :meth:`SolveOutcome.raise_for_error` to re-raise).  Use a
    :class:`Session` instead when running several solves over one graph —
    it keeps the engine (and its caches) warm.
    """
    started = time.perf_counter()
    try:
        spec = _build_spec(spec, spec_fields)
        if graph is not None:
            if spec.has_source:
                raise SpecError("pass either a graph or a spec with a source, not both")
            session = Session(graph=graph)
        else:
            spec.require_source()
            session = Session(
                dataset=spec.dataset, edge_list=spec.edge_list, edges=spec.edges
            )
        return session.solve(spec)
    except ReproError as exc:
        return SolveOutcome(
            request_id=spec.request_id if isinstance(spec, SolveSpec) else "",
            ok=False,
            error=str(exc),
            timings={"solve_s": round(time.perf_counter() - started, 6)},
        )
