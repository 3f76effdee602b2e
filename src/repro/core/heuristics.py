"""Random baseline anchor selectors: Rand, Sup and Tur (Section IV-A).

The paper compares GAS against three randomised selectors:

* ``Rand`` draws ``b`` anchors uniformly from all edges;
* ``Sup`` draws them from the top 20 % of edges by support;
* ``Tur`` draws them from the top 20 % of edges by upward-route size.

Each selector is repeated many times (2000 in the paper; configurable here)
and the *maximum* achieved trussness gain over the repetitions is reported,
exactly as in the paper's Exp-1 and Exp-3.

All three are registered in the solver registry; the public functions are
thin wrappers that share the engine's baseline state instead of recomputing
the original decomposition per call.
"""

from __future__ import annotations

import numbers
import random
import time
from typing import Dict, Mapping, Optional, Sequence

from repro.api.spec import SolveSpec
from repro.core.engine import SolverEngine, register_solver
from repro.core.params import count_param, fraction_param, rng_param
from repro.core.result import AnchorResult, evaluate_anchor_set
from repro.core.upward_route import upward_route_size
from repro.graph.graph import Edge, Graph
from repro.truss.state import TrussState
from repro.utils.errors import InvalidEdgeError, InvalidParameterError

DEFAULT_TOP_FRACTION = 0.2
DEFAULT_REPETITIONS = 200


def _run_repetitions(
    graph: Graph,
    pool: Sequence[Edge],
    budget: int,
    repetitions: int,
    rng: random.Random,
    algorithm: str,
    baseline_state: TrussState,
) -> AnchorResult:
    """Draw ``repetitions`` random anchor sets from ``pool``; keep the best."""
    if budget < 0:
        raise InvalidParameterError("budget must be non-negative")
    if not pool:
        raise InvalidParameterError("candidate pool is empty")
    start = time.perf_counter()
    effective_budget = min(budget, len(pool))

    best_result: Optional[AnchorResult] = None
    for _ in range(repetitions):
        anchors = rng.sample(list(pool), effective_budget)
        result = evaluate_anchor_set(
            graph, anchors, algorithm=algorithm, baseline_state=baseline_state
        )
        if best_result is None or result.gain > best_result.gain:
            best_result = result
    assert best_result is not None
    best_result.elapsed_seconds = time.perf_counter() - start
    best_result.extra["repetitions"] = repetitions
    best_result.extra["pool_size"] = len(pool)
    return best_result


def _checked_route_sizes(graph: Graph, route_sizes: object) -> Dict[Edge, int]:
    """``route_sizes`` keyed by canonical edges, or :class:`InvalidParameterError`.

    It must map ``(u, v)`` edges of the graph to ints ``>= 0``; edges it
    leaves out rank with size 0.  A JSON request cannot spell such a
    mapping (object keys are strings), so over the wire only the default
    (sizes computed here) is usable.
    """
    if not isinstance(route_sizes, Mapping):
        raise InvalidParameterError(
            f"route_sizes must map (u, v) edges to sizes, got {type(route_sizes).__name__}"
        )
    checked: Dict[Edge, int] = {}
    for key, size in route_sizes.items():
        if not isinstance(key, tuple) or len(key) != 2:
            raise InvalidParameterError(f"route_sizes key {key!r} is not a (u, v) edge")
        try:
            edge = graph.require_edge(key)
        except InvalidEdgeError:
            raise InvalidParameterError(
                f"route_sizes key {key!r} is not an edge of the graph"
            ) from None
        if isinstance(size, bool) or not isinstance(size, numbers.Integral) or size < 0:
            raise InvalidParameterError(
                f"route_sizes[{key!r}] must be an int >= 0, got {size!r}"
            )
        if edge in checked:
            raise InvalidParameterError(f"route_sizes lists edge {edge!r} twice")
        checked[edge] = int(size)
    return checked


@register_solver(
    "rand",
    description="best of N uniformly random anchor sets",
    params=("repetitions", "seed"),
    randomized=True,
)
def _solve_rand(engine: SolverEngine, request: SolveSpec) -> AnchorResult:
    request.reject_initial_anchors("rand")
    graph = engine.graph
    repetitions = count_param(request, "repetitions", DEFAULT_REPETITIONS)
    rng = rng_param(request, "seed")
    pool = graph.edge_list()
    return _run_repetitions(
        graph,
        pool,
        request.budget,
        repetitions,
        rng,
        "Rand",
        engine.original_state,
    )


@register_solver(
    "sup",
    description="best of N random anchor sets from top-support edges",
    params=("repetitions", "seed", "top_fraction"),
    randomized=True,
)
def _solve_sup(engine: SolverEngine, request: SolveSpec) -> AnchorResult:
    request.reject_initial_anchors("sup")
    repetitions = count_param(request, "repetitions", DEFAULT_REPETITIONS)
    top_fraction = fraction_param(request, "top_fraction", DEFAULT_TOP_FRACTION)
    rng = rng_param(request, "seed")
    # The index's supports, ranked in dense edge ids: dense order is public
    # edge-id order, so ``(-support, eid)`` is the smallest-id tie-break.
    index = engine.index
    support = index.support
    ranked = sorted(range(index.num_edges), key=lambda eid: (-support[eid], eid))
    cutoff = max(1, int(len(ranked) * top_fraction))
    edge_of = index.edge_of
    return _run_repetitions(
        engine.graph,
        [edge_of[eid] for eid in ranked[:cutoff]],
        request.budget,
        repetitions,
        rng,
        "Sup",
        engine.original_state,
    )


@register_solver(
    "tur",
    description="best of N random anchor sets from top upward-route edges",
    params=("repetitions", "seed", "top_fraction", "route_sizes"),
    randomized=True,
)
def _solve_tur(engine: SolverEngine, request: SolveSpec) -> AnchorResult:
    request.reject_initial_anchors("tur")
    graph = engine.graph
    repetitions = count_param(request, "repetitions", DEFAULT_REPETITIONS)
    top_fraction = fraction_param(request, "top_fraction", DEFAULT_TOP_FRACTION)
    rng = rng_param(request, "seed")
    baseline_state = engine.original_state
    route_sizes = request.param("route_sizes")
    if route_sizes is None:
        route_sizes = {
            edge: upward_route_size(baseline_state, edge) for edge in graph.edges()
        }
    else:
        route_sizes = _checked_route_sizes(graph, route_sizes)
    ranked = sorted(
        graph.edge_list(), key=lambda e: (-route_sizes.get(e, 0), graph.edge_id(e))
    )
    cutoff = max(1, int(len(ranked) * top_fraction))
    return _run_repetitions(
        graph,
        ranked[:cutoff],
        request.budget,
        repetitions,
        rng,
        "Tur",
        baseline_state,
    )


# ---------------------------------------------------------------------------
# Public wrappers (unchanged signatures)
# ---------------------------------------------------------------------------
def random_baseline(
    graph: Graph,
    budget: int,
    repetitions: int = DEFAULT_REPETITIONS,
    seed: int | random.Random | None = None,
    baseline_state: Optional[TrussState] = None,
) -> AnchorResult:
    """``Rand``: anchors drawn uniformly from all edges."""
    engine = SolverEngine(graph, baseline_state=baseline_state)
    return engine.solve("rand", budget, repetitions=repetitions, seed=seed)


def support_baseline(
    graph: Graph,
    budget: int,
    repetitions: int = DEFAULT_REPETITIONS,
    top_fraction: float = DEFAULT_TOP_FRACTION,
    seed: int | random.Random | None = None,
    baseline_state: Optional[TrussState] = None,
) -> AnchorResult:
    """``Sup``: anchors drawn from the top ``top_fraction`` edges by support."""
    engine = SolverEngine(graph, baseline_state=baseline_state)
    return engine.solve(
        "sup", budget, repetitions=repetitions, top_fraction=top_fraction, seed=seed
    )


def upward_route_baseline(
    graph: Graph,
    budget: int,
    repetitions: int = DEFAULT_REPETITIONS,
    top_fraction: float = DEFAULT_TOP_FRACTION,
    seed: int | random.Random | None = None,
    baseline_state: Optional[TrussState] = None,
    route_sizes: Optional[Dict[Edge, int]] = None,
) -> AnchorResult:
    """``Tur``: anchors drawn from the top ``top_fraction`` edges by upward-route size.

    ``route_sizes`` may be supplied to reuse sizes already computed for
    Table IV; otherwise they are computed here.
    """
    engine = SolverEngine(graph, baseline_state=baseline_state)
    return engine.solve(
        "tur",
        budget,
        repetitions=repetitions,
        top_fraction=top_fraction,
        seed=seed,
        route_sizes=route_sizes,
    )
