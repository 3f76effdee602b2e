"""Follower computation for a single anchor edge (Section III-B of the paper).

When an edge ``x`` is anchored its support becomes infinite, which may allow
other edges to survive one more level of the truss peeling.  The edges whose
trussness increases are the *followers* ``F(x, G)``; by Lemma 1 every
follower increases by exactly one, so the trussness gain of anchoring ``x``
equals ``|F(x, G)|``.

Three interchangeable implementations are provided:

``recompute``
    Ground truth: rerun the anchored truss decomposition on the whole graph
    and diff the trussness values.  ``O(m^{1.5})`` per anchor — this is what
    the paper's ``BASE`` algorithm does.

``peel``
    Candidate restriction via the upward-route reachable set (Lemma 2)
    followed by an exact greatest-fixed-point peeling per trussness level.
    This keeps the work proportional to the size of the affected region.

``support-check``
    A faithful implementation of the paper's Algorithm 3: per-hull min-heaps
    keyed by the peeling layer, optimistic *effective triangle* counting
    (Definition 8), and the ``Retract`` cascade that withdraws support when a
    candidate is eliminated.  An exact *first-survivor screen* skips the
    candidates that provably cannot survive (see
    :func:`followers_support_check`); it changes no status the loop leaves.

All three return exactly the same follower set; the test-suite asserts this
on hundreds of random graphs.

The local methods run in the *integer domain* of the shared
:class:`~repro.graph.index.GraphIndex`: candidates, heaps and status flags
are keyed by dense edge ids, trussness/layer lookups are list indexing, and
triangle queries read the precomputed per-edge triple lists.  Both take a
candidate restriction, spelled as edge tuples (``candidate_filter``) or as
component-tree nodes (``candidate_nodes``, the spelling GAS uses: a
membership test on the tree's ``node_of_eid`` instead of a copied union of
node edge sets).  ``recompute`` is the oracle the test-suite checks both
local methods against.
"""

from __future__ import annotations

import heapq
from enum import Enum
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.graph.graph import Edge
from repro.graph.index import GraphIndex
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError


class FollowerMethod(str, Enum):
    """Selector for the follower-computation strategy."""

    RECOMPUTE = "recompute"
    PEEL = "peel"
    SUPPORT_CHECK = "support-check"


# ---------------------------------------------------------------------------
# Ground truth: full anchored re-decomposition
# ---------------------------------------------------------------------------
def followers_by_recompute(state: TrussState, anchor: Edge) -> Set[Edge]:
    """Followers of ``anchor`` obtained by re-running truss decomposition."""
    anchor = state.graph.require_edge(anchor)
    if state.is_anchor(anchor):
        raise InvalidParameterError(f"edge {anchor!r} is already anchored")
    anchored_state = state.with_anchor(anchor)
    return anchored_state.followers_relative_to(state)


def trussness_gain_of_anchor(state: TrussState, anchor: Edge) -> int:
    """Trussness gain of anchoring one extra edge (``= |F(x, G)|`` by Lemma 1)."""
    return len(followers_by_recompute(state, anchor))


# ---------------------------------------------------------------------------
# Candidate collection (upward-route reachable superset, Lemma 2)
# ---------------------------------------------------------------------------
def _initial_candidate_ids(state: TrussState, anchor_id: int, strict: bool) -> Set[int]:
    """Dense ids of the anchor's neighbour-edges satisfying Lemma 2 cond (i).

    With ``strict=True`` the layer comparison is strict (``l(e) > l(x)``),
    exactly as written in the paper.  With ``strict=False`` same-layer
    neighbour-edges are also included; this is only ever a superset and is
    used by the peeling method for extra safety margin.
    """
    index, trussness, layer, anchor_mask = state.kernel_views()
    t_anchor = trussness[anchor_id]
    l_anchor = layer[anchor_id]
    result: Set[int] = set()
    for e1, e2 in index.edge_triangles[anchor_id]:
        for eid in (e1, e2):
            if eid in result or anchor_mask[eid]:
                continue
            t_edge = trussness[eid]
            if t_edge > t_anchor:
                result.add(eid)
            elif t_edge == t_anchor:
                l_edge = layer[eid]
                if l_edge > l_anchor or (not strict and l_edge == l_anchor):
                    result.add(eid)
    return result


def _expand_candidate_ids(state: TrussState, seeds: Set[int]) -> Set[int]:
    """Upward-route reachable closure of ``seeds`` (dense edge ids).

    From a candidate ``e`` at trussness ``k`` the search may move to any
    neighbour-edge ``e'`` with ``t(e') = k`` and ``e ≺ e'`` (Definition 7).
    The closure is a superset of the follower set by Lemma 2.
    """
    index, trussness, layer, anchor_mask = state.kernel_views()
    edge_triangles = index.edge_triangles
    candidates: Set[int] = set(seeds)
    stack: List[int] = list(seeds)
    while stack:
        eid = stack.pop()
        k = trussness[eid]
        l_edge = layer[eid]
        for e1, e2 in edge_triangles[eid]:
            for nxt in (e1, e2):
                if nxt in candidates or anchor_mask[nxt]:
                    continue
                if trussness[nxt] == k and layer[nxt] >= l_edge:
                    candidates.add(nxt)
                    stack.append(nxt)
    return candidates


def _initial_candidates(state: TrussState, anchor: Edge, strict: bool) -> Set[Edge]:
    """Tuple-domain view of :func:`_initial_candidate_ids` (upward routes)."""
    index = state.index
    anchor_id = index.eid_of[state.graph.require_edge(anchor)]
    edge_of = index.edge_of
    return {edge_of[eid] for eid in _initial_candidate_ids(state, anchor_id, strict)}


def _expand_candidates(state: TrussState, seeds: Set[Edge]) -> Set[Edge]:
    """Tuple-domain view of :func:`_expand_candidate_ids` (upward routes)."""
    index = state.index
    eid_of = index.eid_of
    edge_of = index.edge_of
    seed_ids = {eid_of[state.graph.require_edge(e)] for e in seeds}
    return {edge_of[eid] for eid in _expand_candidate_ids(state, seed_ids)}


#: A candidate restriction ``(key_of, allowed)``: edge ``eid`` is in scope iff
#: ``key_of[eid] in allowed``.  ``candidate_nodes`` passes a component tree's
#: ``(node_of_eid, node_ids)``; an edge-tuple filter resolves to
#: ``(range(m), eids)``.
Scope = Tuple[Sequence[int], Set[int]]


def _resolve_scope(
    state: TrussState,
    candidate_filter: Optional[Set[Edge]],
    candidate_nodes: Optional[Scope],
) -> Optional[Scope]:
    """Normalise the two filter spellings to one :data:`Scope` (or ``None``)."""
    if candidate_nodes is not None:
        return candidate_nodes
    if candidate_filter is None:
        return None
    index = state.index
    eid_of = index.eid_of
    graph = state.graph
    return range(index.num_edges), {eid_of[graph.require_edge(e)] for e in candidate_filter}


def _in_scope(eids: Set[int], scope: Optional[Scope]) -> Set[int]:
    """The members of ``eids`` inside ``scope`` (all of them without one)."""
    if scope is None:
        return eids
    key_of, allowed = scope
    return {eid for eid in eids if key_of[eid] in allowed}


# ---------------------------------------------------------------------------
# Method "peel": exact greatest fixed point on the candidate set
# ---------------------------------------------------------------------------
def followers_candidate_peel(
    state: TrussState,
    anchor: Edge,
    candidate_filter: Optional[Set[Edge]] = None,
    candidate_nodes: Optional[Scope] = None,
) -> Set[Edge]:
    """Followers of ``anchor`` via candidate restriction + per-level peeling.

    For every trussness level ``k`` present among the candidates, the level-k
    followers are exactly the maximal set ``S`` of level-k candidates such
    that every member closes at least ``k - 1`` triangles whose other two
    edges are each either the anchor, an already-anchored edge, an edge of
    trussness ``>= k + 1``, or another member of ``S``.  The maximal such set
    is computed by iterative peeling.

    ``candidate_filter`` (edge tuples) or ``candidate_nodes`` (a component
    tree's ``(node_of_eid, node_ids)``, the spelling GAS uses) optionally
    restricts the considered candidates to selected tree nodes.
    """
    anchor = state.graph.require_edge(anchor)
    if state.is_anchor(anchor):
        raise InvalidParameterError(f"edge {anchor!r} is already anchored")

    index, trussness, _layer, _anchor_mask = state.kernel_views()
    anchor_id = index.eid_of[anchor]
    scope = _resolve_scope(state, candidate_filter, candidate_nodes)

    seeds = _initial_candidate_ids(state, anchor_id, strict=False)
    candidates = _expand_candidate_ids(state, _in_scope(seeds, scope))
    candidates = _in_scope(candidates, scope)
    candidates.discard(anchor_id)

    edge_of = index.edge_of
    followers = _followers_on_arrays(index, trussness, anchor_id, candidates)
    return {edge_of[eid] for eid in followers}


def _gfp_level(
    index: GraphIndex,
    truss: List[float],
    anchor_eid: int,
    k: int,
    members: Set[int],
) -> Set[int]:
    """Level-``k`` followers: greatest fixed point of the support condition.

    A member survives iff it closes at least ``k - 1`` triangles whose other
    two edges are each *solid* (the new anchor, an existing anchor or an edge
    of trussness ``>= k + 1`` — anchors hold ``inf`` in ``truss``) or another
    surviving member.  ``members`` may be any superset of the level-k
    followers drawn from the k-hull; extras are peeled away.
    """
    tri = index.edge_triangles
    solid = k + 1
    alive = set(members)
    support: Dict[int, int] = {}
    for eid in alive:
        count = 0
        for a, b in tri[eid]:
            if (a == anchor_eid or truss[a] >= solid or a in alive) and (
                b == anchor_eid or truss[b] >= solid or b in alive
            ):
                count += 1
        support[eid] = count
    threshold = k - 1
    queue = [eid for eid in alive if support[eid] < threshold]
    removed = set(queue)
    while queue:
        eid = queue.pop()
        alive.discard(eid)
        for a, b in tri[eid]:
            for member, partner in ((a, b), (b, a)):
                if member in alive and (
                    partner == anchor_eid or truss[partner] >= solid or partner in alive
                ):
                    support[member] -= 1
                    if support[member] < threshold and member not in removed:
                        removed.add(member)
                        queue.append(member)
    return alive


def _followers_on_arrays(
    index: GraphIndex, truss: List[float], anchor_eid: int, candidates: Set[int]
) -> List[int]:
    """Exact follower eids of anchoring ``anchor_eid``, given a superset of
    them: the engine's dirty closure, or the upward-route candidates."""
    by_level: Dict[int, Set[int]] = {}
    for eid in candidates:
        by_level.setdefault(int(truss[eid]), set()).add(eid)
    followers: List[int] = []
    for k, members in by_level.items():
        followers.extend(_gfp_level(index, truss, anchor_eid, k, members))
    return followers


# ---------------------------------------------------------------------------
# Method "support-check": the paper's Algorithm 3
# ---------------------------------------------------------------------------
_UNCHECKED = 0
_SURVIVED = 1
_ELIMINATED = 2


def followers_support_check(
    state: TrussState,
    anchor: Edge,
    candidate_filter: Optional[Set[Edge]] = None,
    candidate_nodes: Optional[Scope] = None,
) -> Set[Edge]:
    """Followers of ``anchor`` via the paper's Algorithm 3 (GetFollowers).

    The algorithm walks the upward routes rooted at the anchor's qualifying
    neighbour-edges hull by hull.  Candidates are popped from a min-heap
    keyed by their peeling layer; a popped candidate *survives* when its
    number of effective triangles (Definition 8) reaches ``t(e) - 1``,
    otherwise it is *eliminated* and the ``Retract`` cascade withdraws the
    support it had lent to previously surviving edges.

    ``candidate_filter`` (edge tuples) / ``candidate_nodes`` (a component
    tree's ``(node_of_eid, node_ids)``) restrict both the initial pushes and
    the route expansion (used by GAS for per-tree-node reuse).

    First-survivor screen.  While no edge of level ``k`` has survived, a
    level-``k`` candidate ``e`` counts at most the triangles whose other
    edges are each the anchor ``x``, an existing anchor, of trussness
    ``> k``, or of trussness ``k`` with layer ``>= l(e)``.  Without ``x``
    there are at most ``k - 2`` of them (the peel removed ``e`` in wave
    ``l(e)``), and ``x`` lies in at most one triangle of ``e``.  So ``e``
    can reach ``k - 1`` only if it is a *starter*: a strict initial
    candidate (``x`` does not already hold), tight
    (:meth:`~repro.truss.state.TrussState.tight_flags`), whose triangle
    ``{x, e, c}`` has ``c`` an anchor, of trussness ``> k``, or of
    trussness ``k`` with ``l(c) >= l(e)``.  Hence the search returns at once
    when no candidate is a starter, skips levels without one, and, while
    nothing has survived, eliminates a popped non-starter without counting
    its triangles; ``Retract`` runs only once something has survived (before
    that no status is ``survived``, so it would change nothing).  Every step
    leaves exactly the statuses of the unscreened loop.

    Everything runs on dense edge ids: the heap holds ``(layer, eid)`` pairs
    (dense-id order equals public edge-id order, so the tie-breaking matches
    the reference), the per-level status is a bytearray, and triangle queries
    read the index's precomputed triple lists.
    """
    anchor = state.graph.require_edge(anchor)
    if state.is_anchor(anchor):
        raise InvalidParameterError(f"edge {anchor!r} is already anchored")

    index, trussness, layer, anchor_mask = state.kernel_views()
    edge_triangles = index.edge_triangles
    anchor_id = index.eid_of[anchor]
    scope = _resolve_scope(state, candidate_filter, candidate_nodes)
    key_of, allowed = scope if scope is not None else (None, None)

    # Strict Lemma-2 initial candidates (l(e) > l(x) on the anchor's level)
    # and, among them, the starters.  Each neighbour-edge shares exactly one
    # triangle with the anchor, whose third edge is ``other``.
    tight = state.tight_flags()
    t_anchor = trussness[anchor_id]
    l_anchor = layer[anchor_id]
    initial: List[int] = []
    starters: Set[int] = set()
    for e1, e2 in edge_triangles[anchor_id]:
        for eid, other in ((e1, e2), (e2, e1)):
            if anchor_mask[eid]:
                continue
            t_edge = trussness[eid]
            if t_edge < t_anchor or (t_edge == t_anchor and layer[eid] <= l_anchor):
                continue
            if key_of is not None and key_of[eid] not in allowed:
                continue
            initial.append(eid)
            if tight[eid]:
                t_other = trussness[other]
                if t_other > t_edge or (t_other == t_edge and layer[other] >= layer[eid]):
                    starters.add(eid)
    if not starters:
        # Nothing can be the first survivor on any level.
        return set()

    starter_levels = {int(trussness[eid]) for eid in starters}
    heaps: Dict[int, List[Tuple[float, int]]] = {}
    pushed = bytearray(index.num_edges)
    for eid in initial:
        level = int(trussness[eid])
        if level in starter_levels:
            heaps.setdefault(level, []).append((layer[eid], eid))
            pushed[eid] = 1

    heappush = heapq.heappush
    heappop = heapq.heappop

    followers_ids: List[int] = []

    for level in sorted(heaps):
        heap = heaps[level]
        heapq.heapify(heap)
        status = bytearray(index.num_edges)
        survived: Set[int] = set()
        needed = level - 1

        def effective_triangles(eid: int) -> int:
            """Triangles of ``eid`` whose two other edges are both effective."""
            count = 0
            l_edge = layer[eid]
            for e1, e2 in edge_triangles[eid]:
                # Inlined effectiveness(eid, other) for both triangle edges:
                # the anchor and anchored edges always help; eliminated or
                # lower-trussness edges never do; surviving edges help; an
                # unchecked edge helps when the deletion order eid ≺ other
                # holds (Definition 8).
                if e1 != anchor_id and not anchor_mask[e1]:
                    s1 = status[e1]
                    if s1 == _ELIMINATED:
                        continue
                    t1 = trussness[e1]
                    if t1 < level:
                        continue
                    if s1 != _SURVIVED and t1 == level and layer[e1] < l_edge:
                        continue
                if e2 != anchor_id and not anchor_mask[e2]:
                    s2 = status[e2]
                    if s2 == _ELIMINATED:
                        continue
                    t2 = trussness[e2]
                    if t2 < level:
                        continue
                    if s2 != _SURVIVED and t2 == level and layer[e2] < l_edge:
                        continue
                count += 1
            return count

        def retract(eid: int) -> None:
            """Cascade eliminations after ``eid`` lost its survived status."""
            stack = [eid]
            while stack:
                lost = stack.pop()
                for e1, e2 in edge_triangles[lost]:
                    for neighbour in (e1, e2):
                        if status[neighbour] == _SURVIVED:
                            if effective_triangles(neighbour) < needed:
                                status[neighbour] = _ELIMINATED
                                survived.discard(neighbour)
                                stack.append(neighbour)

        while heap:
            l_edge, eid = heappop(heap)
            if status[eid]:
                continue
            if not survived and eid not in starters:
                # The screen: only a starter can be the first survivor.
                status[eid] = _ELIMINATED
                continue
            if effective_triangles(eid) >= needed:
                status[eid] = _SURVIVED
                survived.add(eid)
                for e1, e2 in edge_triangles[eid]:
                    for neighbour in (e1, e2):
                        if pushed[neighbour] or anchor_mask[neighbour]:
                            continue
                        if key_of is not None and key_of[neighbour] not in allowed:
                            continue
                        if trussness[neighbour] == level and layer[neighbour] >= l_edge:
                            heappush(heap, (layer[neighbour], neighbour))
                            pushed[neighbour] = 1
            else:
                status[eid] = _ELIMINATED
                if survived:
                    retract(eid)

        followers_ids.extend(survived)

    edge_of = index.edge_of
    return {edge_of[eid] for eid in followers_ids if eid != anchor_id}


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------
def compute_followers(
    state: TrussState,
    anchor: Edge,
    method: FollowerMethod | str = FollowerMethod.SUPPORT_CHECK,
    candidate_filter: Optional[Set[Edge]] = None,
    candidate_nodes: Optional[Scope] = None,
) -> Set[Edge]:
    """Compute ``F(anchor, G_A)`` with the selected method.

    Parameters
    ----------
    state:
        Current trussness state (graph + already-anchored edges).
    anchor:
        The edge whose anchoring is being evaluated.
    method:
        One of :class:`FollowerMethod` (or its string value).
    candidate_filter:
        Optional restriction of the candidate edges (tree-node reuse); not
        supported by the ``recompute`` method.
    candidate_nodes:
        The same restriction spelled as component-tree nodes:
        ``(tree.node_of_eid, node_ids)`` keeps the edges whose node is in
        ``node_ids`` (takes precedence; the GAS hot loop uses it, so no
        node's edge set is ever copied).
    """
    method = FollowerMethod(method)
    if method is FollowerMethod.RECOMPUTE:
        if candidate_filter is not None or candidate_nodes is not None:
            raise InvalidParameterError("candidate_filter is not supported by 'recompute'")
        return followers_by_recompute(state, anchor)
    if method is FollowerMethod.PEEL:
        return followers_candidate_peel(state, anchor, candidate_filter, candidate_nodes)
    return followers_support_check(state, anchor, candidate_filter, candidate_nodes)
