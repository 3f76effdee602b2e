"""Upward routes (Definitions 6 and 7) and their statistics (Table IV).

An upward route from ``e_s`` to ``e_t`` is a chain of triangles whose edges
all share the trussness of ``e_s`` and appear in non-decreasing deletion
order.  Lemma 2 shows that the followers of an anchor can only lie on upward
routes rooted at the anchor's qualifying neighbour-edges — this is the
candidate restriction that makes the follower search local.

This module exposes the reachable route set of a potential anchor and its
size (the per-anchor oracle), the sizes of every edge at once in one pass
(used by the ``Tur`` baseline and the Table IV statistics), and a
route-existence check used by the tests of Lemma 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set

import numpy as _np

from repro.core.followers import _expand_candidates, _initial_candidates
from repro.graph.graph import Edge
from repro.truss.state import TrussState


def upward_route_edges(state: TrussState, anchor: Edge) -> Set[Edge]:
    """All edges reachable from ``anchor`` along upward routes.

    The set starts from the anchor's neighbour-edges that satisfy condition
    (i) of Lemma 2 and is closed under the route expansion of Definition 7
    (same trussness, non-decreasing deletion order).  It is a superset of
    the follower set ``F(anchor, G)``.
    """
    anchor = state.graph.require_edge(anchor)
    seeds = _initial_candidates(state, anchor, strict=True)
    return _expand_candidates(state, seeds)


def upward_route_size(state: TrussState, anchor: Edge) -> int:
    """Number of edges on the upward routes rooted at ``anchor`` (Table IV).

    One route walk per call; :func:`upward_route_sizes` sizes every edge in
    one pass and is asserted equal to this oracle edge by edge.
    """
    return len(upward_route_edges(state, anchor))


def _components(m: int, a, b):
    """Component label (smallest member id) of each of ``m`` ids, given the
    undirected pairs ``(a[i], b[i])``: hook each root onto the smaller root
    of a pair, then jump pointers until every id points at its root."""
    label = _np.arange(m, dtype=_np.int64)
    while len(a):
        la, lb = label[a], label[b]
        apart = la != lb
        if not apart.any():
            break
        a, b, la, lb = a[apart], b[apart], la[apart], lb[apart]
        _np.minimum.at(label, _np.maximum(la, lb), _np.minimum(la, lb))
        while True:
            jumped = label[label]
            if _np.array_equal(jumped, label):
                break
            label = jumped
    return label


def upward_route_sizes(state: TrussState) -> List[int]:
    """:func:`upward_route_size` of every edge, in one pass (dense edge ids).

    Anchored edges read 0.  The pass follows Definition 7 directly:

    1. Route steps join triangle neighbours of equal trussness, from layer
       ``l`` to any layer ``>= l``.  Between non-anchored edges of one
       trussness *and* one layer a step goes both ways, so the edges
       triangle-connected through such steps form a *group* in which every
       edge reaches every other.
    2. Any other step climbs strictly in layer, so the groups of one
       trussness level form a DAG ordered by layer.  Walking a level's
       groups by descending layer, a group's reach set is its own edges
       plus the reach sets of the groups one step above — the closure of
       Definition 7.  A reach set is a Python-int bitset with one bit per
       edge of the level that has a non-anchored triangle neighbour (no
       other edge can be on a route).
    3. An edge's route starts at its Lemma-2 seeds (as in
       :func:`upward_route_edges`), which can sit on several levels; per
       level its route is the union of its seeds' group reach sets, and its
       size the sum of their popcounts.

    A level's bitsets are dropped as soon as its seeds are sized, so the
    transient memory is that of the largest level.
    """
    index, truss, layer, mask = state.kernel_views()
    m = index.num_edges
    sizes = [0] * m
    csr = index.csr
    if m == 0 or len(csr.hit_e1) == 0:
        return sizes
    t = _np.array(truss, dtype=_np.float64)
    lay = _np.array(layer, dtype=_np.float64)
    free = _np.frombuffer(bytes(mask), dtype=_np.uint8) == 0
    # Every ordered pair of triangle neighbours, both non-anchored.
    base = csr.hit_bases()
    src = _np.concatenate((base, base))
    dst = _np.concatenate((csr.hit_e1, csr.hit_e2)).astype(_np.int64)
    keep = free[src] & free[dst]
    src, dst = src[keep], dst[keep]
    same_level = t[src] == t[dst]
    higher_layer = lay[dst] > lay[src]

    # 1. groups
    tie = same_level & (lay[dst] == lay[src]) & (src < dst)
    group = _components(m, src[tie], dst[tie])
    # 2. one-way steps between groups, and 3. (edge, seed group) pairs
    step = same_level & higher_layer
    seeded = step | (t[dst] > t[src])
    arcs = _np.unique(group[src[step]] * m + group[dst[step]])
    seeds = _np.unique(src[seeded] * m + group[dst[seeded]])
    successors: Dict[int, List[int]] = {}
    for lower, upper in zip((arcs // m).tolist(), (arcs % m).tolist()):
        successors.setdefault(lower, []).append(upper)
    seed_x, seed_g = seeds // m, seeds % m

    # Bit positions, per level: only edges with a non-anchored triangle
    # neighbour can be on a route, ordered by descending layer and then by
    # group.  A group's own edges are one contiguous run, and since a reach
    # set holds only edges of its group's layer or above, its int never
    # reaches past the end of that run.  The walk visits the groups in the
    # same order: level by level, upper layers first.
    ids = _np.unique(src)
    ids = ids[_np.lexsort((group[ids], -lay[ids], t[ids]))]
    levels = t[ids]
    first_of_level = _np.flatnonzero(_np.r_[True, levels[1:] != levels[:-1]])
    position = _np.arange(len(ids)) - _np.repeat(
        first_of_level, _np.diff(_np.r_[first_of_level, len(ids)])
    )
    groups_of = group[ids]
    heads = _np.flatnonzero(_np.r_[True, groups_of[1:] != groups_of[:-1]])
    walk_level = levels[heads]
    walk_ids = groups_of[heads].tolist()
    walk_start = position[heads].tolist()
    walk_run = _np.diff(_np.r_[heads, len(ids)]).tolist()
    pair_order = _np.lexsort((seed_g, seed_x, t[seed_g]))
    pair_level = t[seed_g][pair_order]
    pair_x = seed_x[pair_order].tolist()
    pair_g = seed_g[pair_order].tolist()

    level_values = _np.unique(walk_level)
    walk_bounds = _np.searchsorted(walk_level, level_values, side="right").tolist()
    pair_bounds = _np.searchsorted(pair_level, level_values, side="right").tolist()
    walk_at = pair_at = 0
    for walk_end, pair_end in zip(walk_bounds, pair_bounds):
        reach: Dict[int, int] = {}
        for i in range(walk_at, walk_end):
            bits = ((1 << walk_run[i]) - 1) << walk_start[i]
            for upper in successors.get(walk_ids[i], ()):
                bits |= reach[upper]
            reach[walk_ids[i]] = bits
        current, union = -1, 0
        for i in range(pair_at, pair_end):
            x = pair_x[i]
            if x != current:
                if current >= 0:
                    sizes[current] += union.bit_count()
                current, union = x, reach[pair_g[i]]
            else:
                union |= reach[pair_g[i]]
        if current >= 0:
            sizes[current] += union.bit_count()
        walk_at, pair_at = walk_end, pair_end
    return sizes


@dataclass(frozen=True)
class RouteStatistics:
    """Summary statistics of the upward-route sizes of a graph (Table IV)."""

    minimum: int
    maximum: int
    total: int
    average: float
    per_edge: Dict[Edge, int]

    @classmethod
    def empty(cls) -> "RouteStatistics":
        return cls(minimum=0, maximum=0, total=0, average=0.0, per_edge={})


def upward_route_statistics(
    state: TrussState, edges: Optional[Iterable[Edge]] = None
) -> RouteStatistics:
    """Route-size statistics over ``edges`` (default: every non-anchored edge).

    The paper's Table IV reports the minimum, maximum, sum and average route
    size when every edge of the graph is considered as the anchor in the
    first round of GAS.  The sizes come from one
    :func:`upward_route_sizes` pass.
    """
    pool = list(edges) if edges is not None else list(state.non_anchor_edges())
    per_edge: Dict[Edge, int] = {}
    if pool:
        sizes = upward_route_sizes(state)
        eid_of = state.index.eid_of
        graph = state.graph
        for edge in pool:
            per_edge[edge] = sizes[eid_of[graph.require_edge(edge)]]
    if not per_edge:
        return RouteStatistics.empty()
    sizes = list(per_edge.values())
    total = sum(sizes)
    return RouteStatistics(
        minimum=min(sizes),
        maximum=max(sizes),
        total=total,
        average=total / len(sizes),
        per_edge=per_edge,
    )


def has_upward_route(state: TrussState, source: Edge, target: Edge) -> bool:
    """Is there an upward route from ``source`` to ``target`` (Definition 7)?

    Used by the Lemma 2 property tests: every follower must either satisfy
    condition (i) directly or be reachable by an upward route from a
    qualifying neighbour-edge of the anchor.
    """
    source = state.graph.require_edge(source)
    target = state.graph.require_edge(target)
    if state.trussness(source) != state.trussness(target):
        return False
    reachable = _expand_candidates(state, {source})
    return target in reachable
