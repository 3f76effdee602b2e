"""Exhaustive (exact) solver for the ATR problem.

The ATR problem is NP-hard (Theorem 1), so the exact solver simply
enumerates every size-``b`` subset of candidate edges and keeps the best.
It exists for two reasons:

* the quality experiment of the paper (Fig. 5) compares GAS against the
  exact optimum on small extracted subgraphs with ``b <= 3``;
* the test-suite uses it to check that the greedy solvers never beat the
  optimum and are usually close to it.

A guard refuses instances whose enumeration would be astronomically large,
so that a mistyped benchmark configuration fails fast instead of hanging.

Through the :class:`~repro.core.engine.SolverEngine` each subset is scored
by chaining the incremental re-peel one anchor at a time from the original
state (with the usual full-peel fallback) instead of running a whole-graph
anchored decomposition per subset; the one-decomposition-per-subset oracle
is :func:`repro.oracles.exact_atr_reference`.
"""

from __future__ import annotations

import math
import time
from typing import List, Optional, Sequence, Tuple

from repro.api.spec import SolveSpec
from repro.core.engine import SolverEngine, register_solver
from repro.core.params import checked_edges, count_param
from repro.core.result import AnchorResult, evaluate_anchor_set
from repro.graph.graph import Edge, Graph
from repro.utils.errors import InvalidParameterError

DEFAULT_MAX_COMBINATIONS = 2_000_000


def _combination_count(n: int, k: int) -> int:
    return math.comb(n, k)


def _candidate_pool(graph: Graph, candidates: Optional[Sequence[Edge]]) -> List[Edge]:
    return (
        checked_edges(graph, "candidates", candidates)
        if candidates is not None
        else graph.edge_list()
    )


def _check_enumeration(pool: List[Edge], budget: int, max_combinations: int) -> Tuple[int, int]:
    if budget < 0:
        raise InvalidParameterError("budget must be non-negative")
    effective_budget = min(budget, len(pool))
    total = _combination_count(len(pool), effective_budget)
    if total > max_combinations:
        raise InvalidParameterError(
            f"exact enumeration of C({len(pool)}, {effective_budget}) = {total} subsets "
            f"exceeds the limit of {max_combinations}; use a smaller instance"
        )
    return effective_budget, total


@register_solver(
    "exact",
    description="exhaustive optimum via chained incremental re-peels",
    params=("candidates", "max_combinations"),
)
def _solve_exact(engine: SolverEngine, request: SolveSpec) -> AnchorResult:
    request.reject_initial_anchors("exact")
    graph = engine.graph
    start = time.perf_counter()
    pool = _candidate_pool(graph, request.param("candidates"))
    max_combinations = count_param(request, "max_combinations", DEFAULT_MAX_COMBINATIONS)
    effective_budget, total = _check_enumeration(pool, request.budget, max_combinations)

    # Enumerate the subsets depth-first in lexicographic (= combinations)
    # order, sharing the anchored trussness arrays of every common prefix:
    # each tree node pays one incremental step instead of each *leaf* paying
    # a whole chain, and a strict improvement check keeps the first maximum
    # exactly like the reference loop does.
    index = engine.index
    m = index.num_edges
    eid_of = index.eid_of
    _ix, base_truss, _layer, base_mask = engine.original_state.kernel_views()
    pool_eids = [eid_of[e] for e in pool]
    n = len(pool)

    best_gain = -1
    best_set: Tuple[Edge, ...] = ()
    anchored = [eid_of[a] for a in engine.original_state.anchors]
    chosen: List[Edge] = []

    def descend(start_index: int, depth: int, truss: List[float], mask: bytearray) -> None:
        nonlocal best_gain, best_set
        if depth == effective_budget:
            gain = 0
            for e2 in range(m):
                if not mask[e2]:
                    gain += truss[e2] - base_truss[e2]
            if gain > best_gain:
                best_gain = int(gain)
                best_set = tuple(chosen)
            return
        for i in range(start_index, n - (effective_budget - depth) + 1):
            eid = pool_eids[i]
            chosen.append(pool[i])
            if mask[eid]:  # duplicate candidate: anchoring again is a no-op
                descend(i + 1, depth + 1, truss, mask)
            else:
                next_truss, next_mask = engine.apply_anchor_to_arrays(
                    truss, mask, eid, anchored
                )
                anchored.append(eid)
                descend(i + 1, depth + 1, next_truss, next_mask)
                anchored.pop()
            chosen.pop()

    descend(0, 0, list(base_truss), bytearray(base_mask))

    elapsed = time.perf_counter() - start
    result = evaluate_anchor_set(
        graph,
        best_set,
        algorithm="Exact",
        elapsed_seconds=elapsed,
        baseline_state=engine.original_state,
    )
    result.extra["evaluated_subsets"] = total
    result.extra["engine"] = dict(engine.stats)
    return result


def exact_atr(
    graph: Graph,
    budget: int,
    candidates: Optional[Sequence[Edge]] = None,
    max_combinations: int = DEFAULT_MAX_COMBINATIONS,
) -> AnchorResult:
    """Find the optimal anchor set by exhaustive enumeration.

    Parameters
    ----------
    graph:
        Input graph.
    budget:
        Anchor budget ``b`` (every subset of exactly ``b`` candidates is
        evaluated; if fewer candidates than ``b`` exist the whole candidate
        set is the only option).
    candidates:
        Candidate edge pool; defaults to every edge of the graph.
    max_combinations:
        Safety limit on the number of subsets to evaluate.
    """
    engine = SolverEngine(graph)
    return engine.solve(
        "exact", budget, candidates=candidates, max_combinations=max_combinations
    )
