"""Edge-deletion baseline used by the paper's case study (Exp-4, Fig. 7).

The baseline identifies "critical" edges as the ones whose *removal* causes
the largest drop in total trussness (a k-truss minimisation view, cf. Zhu et
al. IJCAI 2019), then anchors those edges and measures the resulting
trussness gain.  The paper uses it to illustrate that importance-by-removal
and importance-by-anchoring select very different edges: removal-critical
edges tend to have high trussness already, and anchoring them barely lifts
anything because an anchor can only help edges of *higher* deletion order.

Evaluating the removal impact of every edge requires a truss decomposition
per edge, which is the most expensive loop in the harness; the candidate
pool can therefore be capped (``max_candidates``) to the edges with the
highest trussness/support, which is where the removal-critical edges live.
"""

from __future__ import annotations

import time
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.result import AnchorResult, evaluate_anchor_set
from repro.graph.graph import Edge, Graph
from repro.graph.index import GraphIndex
from repro.truss.decomposition import truss_decomposition
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError


def trussness_loss_of_removal(graph: Graph, edge: Edge) -> int:
    """Total trussness lost by deleting ``edge`` (the removed edge excluded)."""
    edge = graph.require_edge(edge)
    before = truss_decomposition(graph)
    reduced = graph.copy()
    reduced.remove_edge(*edge)
    after = truss_decomposition(reduced)
    loss = 0
    for other, old_value in before.trussness.items():
        if other == edge:
            continue
        loss += old_value - after.trussness[other]
    return loss


def edge_deletion_baseline(
    graph: Graph,
    budget: int,
    max_candidates: Optional[int] = 100,
    baseline_state: Optional[TrussState] = None,
) -> AnchorResult:
    """Select ``budget`` removal-critical edges greedily and anchor them.

    Parameters
    ----------
    max_candidates:
        Number of highest (trussness, support) edges evaluated per round;
        ``None`` evaluates every edge (slow).
    """
    if budget < 0:
        raise InvalidParameterError("budget must be non-negative")
    start = time.perf_counter()
    baseline_state = baseline_state or TrussState.compute(graph)
    index = GraphIndex.of(graph)
    support, eid_of = index.support, index.eid_of

    working = graph.copy()
    chosen: List[Edge] = []
    for _ in range(min(budget, graph.num_edges)):
        decomposition = truss_decomposition(working)
        candidates = sorted(
            decomposition.trussness,
            key=lambda e: (-decomposition.trussness[e], -support[eid_of[e]], working.edge_id(e)),
        )
        if max_candidates is not None:
            candidates = candidates[:max_candidates]
        best_edge: Optional[Edge] = None
        best_loss = -1
        for edge in candidates:
            loss = trussness_loss_of_removal(working, edge)
            if loss > best_loss:
                best_edge, best_loss = edge, loss
        if best_edge is None:
            break
        chosen.append(best_edge)
        working.remove_edge(*best_edge)

    elapsed = time.perf_counter() - start
    result = evaluate_anchor_set(
        graph,
        chosen,
        algorithm="Edge-deletion",
        elapsed_seconds=elapsed,
        baseline_state=baseline_state,
    )
    result.extra["removal_candidates"] = max_candidates
    return result
