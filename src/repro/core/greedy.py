"""The BASE and BASE+ greedy solvers (Algorithm 2 and its accelerated variant).

Both algorithms implement the same greedy framework: ``b`` rounds, each of
which evaluates the trussness gain of every candidate edge against the
current anchored graph and anchors the best one.  They differ only in how
the per-edge gain is computed:

* ``BASE`` scores a candidate by the decomposition diff of anchoring it
  (the paper's Algorithm 2).  Through the :class:`~repro.core.engine.SolverEngine`
  that diff comes from an *incremental re-peel* restricted to the
  candidate's dirty region (with a full-peel fallback), which is what makes
  BASE feasible beyond tiny graphs; the full-decomposition-per-candidate
  loop is the oracle :func:`repro.oracles.base_greedy_reference`.
* ``BASE+`` computes followers with the upward-route + support-check
  machinery of Section III-B (Algorithm 3), avoiding whole-graph
  decompositions for the candidates, but still re-evaluates every candidate
  in every round.

Ties between candidates with the same gain are broken by the smallest edge
id, and the same rule is used by GAS so that the three solvers return
identical anchor sets (a property the test-suite checks).

Both public functions are thin wrappers over the solver registry
(``engine.solve("base", ...)`` / ``engine.solve("base+", ...)``).
"""

from __future__ import annotations

import time
from typing import Iterable, List

from repro.api.spec import SolveSpec
from repro.core.engine import SolverEngine, register_solver
from repro.core.followers import FollowerMethod, compute_followers
from repro.core.params import choice_param, method_param
from repro.core.result import AnchorResult, evaluate_anchor_set
from repro.graph.graph import Edge, Graph
from repro.utils.errors import InvalidParameterError


def _check_budget(graph: Graph, budget: int) -> None:
    if budget < 0:
        raise InvalidParameterError("budget must be non-negative")
    if budget > graph.num_edges:
        raise InvalidParameterError(
            f"budget {budget} exceeds the number of edges {graph.num_edges}"
        )


# ---------------------------------------------------------------------------
# Engine-based solvers (registered)
# ---------------------------------------------------------------------------
@register_solver(
    "base",
    description="greedy with per-candidate incremental re-peel (Algorithm 2)",
    params=("candidate_pool",),
)
def _solve_base(engine: SolverEngine, request: SolveSpec) -> AnchorResult:
    graph = engine.graph
    _check_budget(graph, request.budget)
    use_reuse = (
        choice_param(request, "candidate_pool", ("reuse", "scan"), "reuse") == "reuse"
    )
    start = time.perf_counter()
    per_round_gain: List[int] = []
    cumulative_seconds: List[float] = []
    index = engine.index
    m = index.num_edges
    edge_of = index.edge_of
    original_trussness = engine.original_state.kernel_views()[1]

    # Candidate-pool narrowing (``candidate_pool="reuse"``, the default):
    # the reuse rule proves that a committed anchor can only change the gain
    # of candidates inside its dirty closure — the edges whose trussness or
    # layer moved, plus (via the component tree's reverse ``sla`` index) the
    # candidates whose ``sla`` references a touched node.  The engine's
    # :meth:`take_reuse_decision` yields exactly that set from the tree
    # patch, so every round after the first re-peels only the dirty
    # candidates and keeps all other cached gains.  ``"scan"`` forces the
    # previous evaluate-everything behaviour (the full-scan oracle; both
    # produce identical anchors and gains — asserted by the tests).
    score_of: dict = {}
    invalidation = None
    if use_reuse and request.budget > 1:
        # The tree before the state, so commits patch (and log) it.
        engine.tree()

    for _round in range(request.budget):
        state = engine.state
        current_trussness, anchor_mask = (
            state.kernel_views()[1],
            state.kernel_views()[3],
        )
        if invalidation is None:
            score_of.clear()
            eval_eids = [eid for eid in range(m) if not anchor_mask[eid]]
        else:
            eval_eids = [
                eid for eid in sorted(invalidation.dirty_eids) if not anchor_mask[eid]
            ]
        for eid in eval_eids:
            # Score by the true marginal gain of Definition 4 (relative to
            # the original graph): the candidate's follower count from the
            # restricted re-peel, minus the gain the candidate itself
            # accumulated as a follower of earlier anchors (forfeited once
            # it becomes an anchor).  See the module docstring of gas.py.
            accumulated = current_trussness[eid] - original_trussness[eid]
            score_of[eid] = engine.evaluate_gain(edge_of[eid]) - accumulated
        # Highest cached score wins; ties break on the smallest edge id
        # (dense eids are ascending in public edge id), exactly like the
        # full scan of :func:`repro.oracles.base_greedy_reference`.
        best_eid = -1
        best_score = -1
        for eid, score in score_of.items():
            if score > best_score or (score == best_score and eid < best_eid):
                best_eid, best_score = eid, score
        if best_eid < 0:
            break
        best_edge = edge_of[best_eid]
        engine.commit_anchor(best_edge)
        score_of.pop(best_eid, None)
        per_round_gain.append(max(best_score, 0))
        if use_reuse and _round + 1 < request.budget:
            invalidation = engine.take_reuse_decision()
        cumulative_seconds.append(time.perf_counter() - start)

    elapsed = time.perf_counter() - start
    # Evaluate against the engine's own baseline (no redundant recompute;
    # consistent with the round scores when the baseline carries anchors).
    result = evaluate_anchor_set(
        graph,
        engine.anchors,
        algorithm="BASE",
        elapsed_seconds=elapsed,
        baseline_state=engine.original_state,
    )
    result.per_round_gain = per_round_gain
    result.extra["cumulative_seconds_per_round"] = cumulative_seconds
    result.extra["engine"] = dict(engine.stats)
    return result


@register_solver(
    "base+",
    description="greedy with Algorithm-3 follower search",
    params=("method",),
)
def _solve_base_plus(engine: SolverEngine, request: SolveSpec) -> AnchorResult:
    graph = engine.graph
    _check_budget(graph, request.budget)
    method = method_param(request, "method", FollowerMethod.SUPPORT_CHECK)
    start = time.perf_counter()
    per_round_gain: List[int] = []
    cumulative_seconds: List[float] = []
    original_trussness = engine.original_state.kernel_views()[1]

    for _ in range(request.budget):
        state = engine.state
        index, current_trussness, _layer, anchor_mask = state.kernel_views()
        edge_of = index.edge_of
        # Algorithm 3's starter screen for every candidate at once: an edge
        # without a starter has no follower, so its search is skipped.
        starters = state.starter_flags() if method is FollowerMethod.SUPPORT_CHECK else None
        # Highest score wins; ties break on the smallest edge id (dense eids
        # are ascending in public edge id, so the first maximum in eid order).
        best_eid = -1
        best_score = -1
        for eid in range(index.num_edges):
            if anchor_mask[eid]:
                continue
            if starters is None or starters[eid]:
                gain = len(compute_followers(state, edge_of[eid], method=method))
            else:
                gain = 0
            # Marginal gain of Definition 4: the follower count minus the gain
            # the candidate itself accumulated as a follower of earlier
            # anchors (that gain is forfeited once the edge becomes an anchor).
            score = gain - (current_trussness[eid] - original_trussness[eid])
            if score > best_score:
                best_eid, best_score = eid, score
        if best_eid < 0:
            break
        engine.commit_anchor(edge_of[best_eid])
        per_round_gain.append(best_score)
        cumulative_seconds.append(time.perf_counter() - start)

    elapsed = time.perf_counter() - start
    # Evaluate against the engine's own baseline (no redundant recompute;
    # consistent with the round scores when the baseline carries anchors).
    result = evaluate_anchor_set(
        graph,
        engine.anchors,
        algorithm="BASE+",
        elapsed_seconds=elapsed,
        baseline_state=engine.original_state,
    )
    result.per_round_gain = per_round_gain
    result.extra["follower_method"] = method.value
    result.extra["cumulative_seconds_per_round"] = cumulative_seconds
    result.extra["engine"] = dict(engine.stats)
    return result


# ---------------------------------------------------------------------------
# Public wrappers (unchanged signatures)
# ---------------------------------------------------------------------------
def base_greedy(
    graph: Graph,
    budget: int,
    initial_anchors: Iterable[Edge] = (),
    candidate_pool: str = "reuse",
) -> AnchorResult:
    """The paper's BASE algorithm (Algorithm 2), run through the engine.

    Selects exactly the same anchors as the oracle
    :func:`repro.oracles.base_greedy_reference` (the equivalence suite
    asserts this); the per-candidate evaluation is an incremental re-peel
    instead of a whole-graph decomposition, and with
    ``candidate_pool="reuse"`` (the default) every round after the first
    re-evaluates only the candidates the reuse rule marks dirty — the dirty
    closure of the committed anchor plus the candidates whose ``sla``
    references a touched tree node (via the reverse ``sla`` index).
    ``candidate_pool="scan"`` forces the evaluate-everything full-scan oracle.
    """
    engine = SolverEngine(graph)
    return engine.solve(
        "base", budget, initial_anchors=initial_anchors, candidate_pool=candidate_pool
    )


def base_plus_greedy(
    graph: Graph,
    budget: int,
    initial_anchors: Iterable[Edge] = (),
    method: FollowerMethod | str = FollowerMethod.SUPPORT_CHECK,
) -> AnchorResult:
    """The BASE+ algorithm: greedy selection with Algorithm-3 follower search.

    Parameters
    ----------
    method:
        Which follower computation to use for the per-candidate evaluation
        (``support-check`` by default, matching the paper; ``peel`` and
        ``recompute`` are accepted for ablation studies).
    """
    engine = SolverEngine(graph)
    return engine.solve("base+", budget, initial_anchors=initial_anchors, method=method)
