"""From-scratch oracles: one independent implementation per invariant.

Every optimised path of the library (incremental re-peel, the vectorised
peel, the patched component tree, the reuse rule, the GAS candidate heap)
is checked against a *from-scratch* implementation of the same definition.
One oracle per invariant is enough, because Lemma 1 ties the solvers
together: the gain of anchoring ``x`` is ``|F(x)|``, so BASE, BASE+ and GAS
must pick the same anchors, and every follower method must match the
recompute-and-diff follower set
(:func:`repro.core.followers.followers_by_recompute`, which stays in the
serving code as ``method="recompute"``).

* :func:`truss_decomposition_reference` — trussness, layers and ``k_max``
  of every peel (Algorithm 1); :func:`dense_peel_reference` is the same
  result in the vectorised peel's dense-id form;
* :func:`triangle_connected_components_reference` — triangle connectivity
  (Definition 6);
* :func:`component_tree_reference` — the truss component tree and its
  ``sla`` sets (Algorithm 4);
* :func:`compute_reuse_decision_reference` — the follower-reuse
  invalidation (Algorithm 5);
* :func:`base_greedy_reference` — greedy anchors and gains, one anchored
  decomposition per candidate (Algorithm 2);
* :func:`exact_atr_reference` — the exact optimum, one anchored
  decomposition per subset.

The oracles are deliberately slow and must stay simple; they are not
optimised and they are not imported by any serving module (``repro.api``,
``repro.service``, ``repro.cluster``, ``repro.cli``) — the test-suite
asserts both the agreement and the import boundary.  The scenario rig
(:mod:`repro.world`) and the equivalence tests are their only callers.
"""

from __future__ import annotations

import itertools
import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.core.component_tree import ANCHOR_NODE, TreeNode, TrussComponentTree
from repro.core.exact import DEFAULT_MAX_COMBINATIONS, _candidate_pool, _check_enumeration
from repro.core.greedy import _check_budget
from repro.core.result import AnchorResult, evaluate_anchor_set
from repro.core.reuse import ReuseDecision
from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.index import GraphIndex
from repro.graph.triangles import neighbor_edges, triangles_of_graph
from repro.truss.decomposition import TrussDecomposition
from repro.truss.state import TrussState

__all__ = [
    "base_greedy_reference",
    "component_tree_reference",
    "compute_reuse_decision_reference",
    "dense_peel_reference",
    "exact_atr_reference",
    "triangle_connected_components_reference",
    "truss_decomposition_reference",
]


# ---------------------------------------------------------------------------
# Truss decomposition (Algorithm 1)
# ---------------------------------------------------------------------------
def truss_decomposition_reference(
    graph: Graph, anchors: Iterable[Edge] = ()
) -> TrussDecomposition:
    """Tuple-domain implementation of Algorithm 1.

    Live adjacency sets, per-removal set intersections and per-phase scans
    over the remaining edges — no shared index, no arrays.
    """
    anchor_set: FrozenSet[Edge] = frozenset(graph.require_edge(e) for e in anchors)

    # Live adjacency copy; edges are removed from it as they are peeled.
    adjacency: Dict[object, Set[object]] = {u: set(graph.neighbors(u)) for u in graph.vertices()}

    support: Dict[Edge, int] = {}
    for u, v in graph.edges():
        edge = normalize_edge(u, v)
        small, large = (u, v) if len(adjacency[u]) <= len(adjacency[v]) else (v, u)
        support[edge] = sum(1 for w in adjacency[small] if w in adjacency[large])

    remaining: Set[Edge] = set(support)
    non_anchor_remaining: Set[Edge] = remaining - anchor_set

    trussness: Dict[Edge, int] = {}
    layer: Dict[Edge, int] = {}

    def remove_edge(edge: Edge) -> List[Edge]:
        """Remove ``edge`` from the live structures; return edges whose support dropped."""
        u, v = edge
        affected: List[Edge] = []
        common = adjacency[u] & adjacency[v]
        for w in common:
            for other in (normalize_edge(u, w), normalize_edge(v, w)):
                if other in remaining:
                    support[other] -= 1
                    affected.append(other)
        adjacency[u].discard(v)
        adjacency[v].discard(u)
        remaining.discard(edge)
        non_anchor_remaining.discard(edge)
        return affected

    k = 2
    while non_anchor_remaining:
        threshold = k - 2
        frontier = sorted(e for e in non_anchor_remaining if support[e] <= threshold)
        layer_index = 0
        scheduled: Set[Edge] = set(frontier)
        while frontier:
            layer_index += 1
            next_frontier: List[Edge] = []
            for edge in frontier:
                trussness[edge] = k
                layer[edge] = layer_index
                for other in remove_edge(edge):
                    if (
                        other not in scheduled
                        and other in non_anchor_remaining
                        and support[other] <= threshold
                    ):
                        scheduled.add(other)
                        next_frontier.append(other)
            frontier = sorted(next_frontier)
        k += 1

    k_max = max(trussness.values(), default=1)
    return TrussDecomposition(
        trussness=trussness, layer=layer, anchors=anchor_set, k_max=k_max
    )


def dense_peel_reference(
    graph: Graph, anchor_eids: Sequence[int] = ()
) -> Tuple[List[int], List[int], int]:
    """:func:`truss_decomposition_reference` in the dense form of
    :func:`repro.truss.peel.peel_trussness_arrays`: ``(trussness, layer,
    k_max)`` indexed by dense edge id, anchored edges keeping the sentinel 0.
    """
    edge_of = GraphIndex.of(graph).edge_of
    oracle = truss_decomposition_reference(graph, [edge_of[eid] for eid in anchor_eids])
    return (
        [oracle.trussness.get(edge, 0) for edge in edge_of],
        [oracle.layer.get(edge, 0) for edge in edge_of],
        oracle.k_max,
    )


# ---------------------------------------------------------------------------
# Triangle connectivity (Definition 6) and the component tree (Algorithm 4)
# ---------------------------------------------------------------------------
def triangle_connected_components_reference(
    graph: Graph, edges: Optional[Iterable[Edge]] = None
) -> List[Set[Edge]]:
    """Tuple-domain union-find over a fresh triangle enumeration."""
    if edges is None:
        edge_set: Set[Edge] = set(graph.edges())
    else:
        edge_set = {graph.require_edge(e) for e in edges}

    parent: Dict[Edge, Edge] = {e: e for e in edge_set}

    def find(e: Edge) -> Edge:
        root = e
        while parent[root] != root:
            root = parent[root]
        while parent[e] != root:
            parent[e], e = root, parent[e]
        return root

    def union(a: Edge, b: Edge) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for u, v, w in triangles_of_graph(graph):
        e1 = normalize_edge(u, v)
        e2 = normalize_edge(u, w)
        e3 = normalize_edge(v, w)
        if e1 in edge_set and e2 in edge_set and e3 in edge_set:
            union(e1, e2)
            union(e1, e3)

    groups: Dict[Edge, Set[Edge]] = {}
    for e in edge_set:
        groups.setdefault(find(e), set()).add(e)
    return list(groups.values())


def component_tree_reference(state: TrussState) -> TrussComponentTree:
    """The recursive BuildTree of Algorithm 4, one level at a time.

    Per trussness level ``k``, the triangle-connected components of the
    edges with trussness ``>= k`` (plus the anchors) are recomputed from
    scratch; each component's trussness-``k`` edges form one node whose
    parent is the node that enclosed them at the previous level.  Each
    edge's ``sla`` set is read off its triangles
    (:func:`~repro.graph.triangles.neighbor_edges`) through the state API.
    The state's index only names the edges by dense id, so the oracle
    shares nothing with :meth:`TrussComponentTree.build`.
    """
    graph = state.graph
    trussness = state.decomposition.trussness
    anchors = state.anchors
    eid_of = state.index.eid_of

    nodes: Dict[int, TreeNode] = {}
    node_of_edge: Dict[Edge, int] = {}
    enclosing: Dict[Edge, Optional[int]] = {e: None for e in graph.edges()}

    for k in sorted(set(trussness.values())):
        member_edges = [e for e, t in trussness.items() if t >= k]
        member_edges.extend(anchors)
        if not member_edges:
            continue
        for component in triangle_connected_components_reference(graph, member_edges):
            level_edges = [e for e in component if e not in anchors and trussness[e] == k]
            if not level_edges:
                continue
            node_id = min(graph.edge_id(e) for e in level_edges)
            parent_id = enclosing[level_edges[0]]
            nodes[node_id] = TreeNode(
                node_id=node_id,
                k=k,
                edge_ids=frozenset(eid_of[e] for e in level_edges),
                parent=parent_id,
            )
            if parent_id is not None:
                nodes[parent_id].children.append(node_id)
            for edge in level_edges:
                node_of_edge[edge] = node_id
            for edge in component:
                enclosing[edge] = node_id

    node_of_eid = [ANCHOR_NODE] * len(eid_of)
    sla_sets: List[Optional[Set[int]]] = [None] * len(eid_of)
    for edge, node_id in node_of_edge.items():
        eid = eid_of[edge]
        node_of_eid[eid] = node_id
        t_edge = state.trussness(edge)
        sla = {
            node_of_edge[neighbour]
            for e1, e2, _w in neighbor_edges(graph, edge)
            for neighbour in (e1, e2)
            if not state.is_anchor(neighbour) and state.trussness(neighbour) >= t_edge
        }
        sla_sets[eid] = sla or None
    return TrussComponentTree(
        nodes=nodes, state=state, sla_sets=sla_sets, node_of_eid=node_of_eid
    )


# ---------------------------------------------------------------------------
# Follower reuse (Algorithm 5)
# ---------------------------------------------------------------------------
def _signatures_reference(tree: TrussComponentTree):
    """Per-node ``(edge ids, sorted (edge, t, l))`` signatures via the state API."""
    state = tree.state
    edge_of = state.index.edge_of
    result = {}
    for node_id, node in tree.nodes.items():
        edges = [edge_of[eid] for eid in node.edge_ids]
        detail = tuple(
            sorted(
                (edge, float(state.trussness(edge)), float(state.layer(edge)))
                for edge in edges
            )
        )
        result[node_id] = (node.edge_ids, detail)
    return result


def compute_reuse_decision_reference(
    old_tree: TrussComponentTree,
    new_tree: TrussComponentTree,
    committed_anchor: Edge,
    committed_followers: Set[Edge],
) -> ReuseDecision:
    """The invalidation analysis as a full before/after tree diff.

    Fresh per-call signatures and per-edge state-API ``t``/``l``
    comparisons; returns the decision that the engine's patch-assembled
    :meth:`~repro.core.engine.SolverEngine.take_reuse_decision` must
    reproduce.
    """
    decision = ReuseDecision()

    old_signatures = _signatures_reference(old_tree)
    new_signatures = _signatures_reference(new_tree)

    for node_id, signature in old_signatures.items():
        if new_signatures.get(node_id) != signature:
            decision.invalid_node_ids.add(node_id)
    for node_id in new_signatures:
        if node_id not in old_signatures:
            decision.invalid_node_ids.add(node_id)

    old_state = old_tree.state
    new_state = new_tree.state
    decision.invalid_node_ids |= old_tree.sla(committed_anchor)
    if not new_state.is_anchor(committed_anchor):  # pragma: no cover - defensive
        decision.invalid_node_ids |= new_tree.sla(committed_anchor)
    if not old_state.is_anchor(committed_anchor):
        decision.invalid_node_ids.add(old_tree.node_of(committed_anchor).node_id)

    for follower in committed_followers:
        for tree in (old_tree, new_tree):
            if not tree.state.is_anchor(follower):
                decision.invalid_node_ids.add(tree.node_of(follower).node_id)

    eid_of = new_state.index.eid_of
    for edge in old_state.non_anchor_edges():
        if (
            new_state.is_anchor(edge)
            or old_state.trussness(edge) != new_state.trussness(edge)
            or old_state.layer(edge) != new_state.layer(edge)
        ):
            decision.invalid_eids.add(eid_of[edge])
    return decision


# ---------------------------------------------------------------------------
# Solvers: greedy (Algorithm 2) and exact
# ---------------------------------------------------------------------------
def _pick_best(
    graph: Graph, scored: Iterable[Tuple[Edge, int]]
) -> Tuple[Optional[Edge], int]:
    """Highest score wins; ties are broken by the smallest edge id."""
    best_edge: Optional[Edge] = None
    best_score = -1
    best_id = -1
    for edge, score in scored:
        edge_id = graph.edge_id(edge)
        if score > best_score or (score == best_score and edge_id < best_id):
            best_edge, best_score, best_id = edge, score, edge_id
    return best_edge, max(best_score, 0)


def base_greedy_reference(
    graph: Graph,
    budget: int,
    initial_anchors: Iterable[Edge] = (),
) -> AnchorResult:
    """BASE with one full anchored truss decomposition per candidate.

    By Lemma 1 this is also the oracle of BASE+ and GAS: all three pick the
    same anchors with the same per-round gains under the shared
    smallest-edge-id tie-break.
    """
    _check_budget(graph, budget)
    start = time.perf_counter()
    anchors: List[Edge] = [graph.require_edge(e) for e in initial_anchors]
    per_round_gain: List[int] = []
    cumulative_seconds: List[float] = []
    original_state = TrussState.compute(graph)

    for _ in range(budget):
        state = TrussState.compute(graph, anchors)
        current_objective = state.trussness_gain_from(original_state)
        scored = []
        for edge in state.non_anchor_edges():
            anchored = state.with_anchor(edge)
            scored.append(
                (edge, anchored.trussness_gain_from(original_state) - current_objective)
            )
        best_edge, best_score = _pick_best(graph, scored)
        if best_edge is None:
            break
        anchors.append(best_edge)
        per_round_gain.append(best_score)
        cumulative_seconds.append(time.perf_counter() - start)

    elapsed = time.perf_counter() - start
    result = evaluate_anchor_set(graph, anchors, algorithm="BASE", elapsed_seconds=elapsed)
    result.per_round_gain = per_round_gain
    result.extra["cumulative_seconds_per_round"] = cumulative_seconds
    return result


def exact_atr_reference(
    graph: Graph,
    budget: int,
    candidates: Optional[Sequence[Edge]] = None,
    max_combinations: int = DEFAULT_MAX_COMBINATIONS,
) -> AnchorResult:
    """Exact ATR with one full anchored decomposition per subset."""
    start = time.perf_counter()
    pool = _candidate_pool(graph, candidates)
    effective_budget, total = _check_enumeration(pool, budget, max_combinations)

    baseline = TrussState.compute(graph)
    best_gain = -1
    best_set: Tuple[Edge, ...] = ()
    for subset in itertools.combinations(pool, effective_budget):
        anchored = baseline.with_anchors(subset)
        gain = anchored.trussness_gain_from(baseline)
        if gain > best_gain:
            best_gain = gain
            best_set = subset

    elapsed = time.perf_counter() - start
    result = evaluate_anchor_set(
        graph,
        best_set,
        algorithm="Exact",
        elapsed_seconds=elapsed,
        baseline_state=baseline,
    )
    result.extra["evaluated_subsets"] = total
    return result
