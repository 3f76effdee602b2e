"""Trussness state: graph + anchors + trussness + layers in one queryable object.

Every component of the ATR solution (follower computation, upward routes,
truss component tree, greedy solvers) needs the same bundle of information:
the graph, the current anchor set, the trussness ``t(e)`` and layer ``l(e)``
of each non-anchored edge, and the deletion order ``e1 ≺ e2`` derived from
them.  :class:`TrussState` packages this bundle and offers the queries the
paper's pseudo-code performs on it.

Anchored edges are modelled with an *infinite* trussness
(:data:`ANCHOR_TRUSSNESS`), matching the paper's convention that an anchor
is "persistently in any truss structure".
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from repro.graph.graph import Edge, Graph, Vertex, normalize_edge
from repro.graph.index import GraphIndex
from repro.truss.decomposition import TrussDecomposition, truss_decomposition
from repro.utils.errors import InvalidEdgeError, InvalidParameterError

#: Trussness value used for anchored edges in comparisons (never peeled).
ANCHOR_TRUSSNESS = math.inf


@dataclass
class TrussState:
    """Graph, anchor set and the corresponding (anchored) truss decomposition."""

    graph: Graph
    anchors: FrozenSet[Edge]
    decomposition: TrussDecomposition

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def compute(cls, graph: Graph, anchors: Iterable[Edge] = ()) -> "TrussState":
        """Run an anchored truss decomposition and wrap it in a state object."""
        anchor_set = frozenset(graph.require_edge(e) for e in anchors)
        decomposition = truss_decomposition(graph, anchor_set)
        return cls(graph=graph, anchors=anchor_set, decomposition=decomposition)

    def with_anchor(self, edge: Edge) -> "TrussState":
        """Return a fresh state with ``edge`` added to the anchor set (recomputed)."""
        edge = self.graph.require_edge(edge)
        return TrussState.compute(self.graph, self.anchors | {edge})

    def with_anchors(self, edges: Iterable[Edge]) -> "TrussState":
        """Return a fresh state with all ``edges`` added to the anchor set."""
        new_anchors = self.anchors | {self.graph.require_edge(e) for e in edges}
        return TrussState.compute(self.graph, new_anchors)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------
    def is_anchor(self, edge: Edge) -> bool:
        return normalize_edge(*edge) in self.anchors

    def trussness(self, edge: Edge) -> float:
        """``t(e)``; anchored edges report :data:`ANCHOR_TRUSSNESS`."""
        edge = normalize_edge(*edge)
        if edge in self.anchors:
            return ANCHOR_TRUSSNESS
        try:
            return self.decomposition.trussness[edge]
        except KeyError as exc:
            raise InvalidEdgeError(edge) from exc

    def layer(self, edge: Edge) -> float:
        """``l(e)``; anchored edges report ``+inf`` (they are never peeled)."""
        edge = normalize_edge(*edge)
        if edge in self.anchors:
            return math.inf
        try:
            return self.decomposition.layer[edge]
        except KeyError as exc:
            raise InvalidEdgeError(edge) from exc

    def precedes(self, first: Edge, second: Edge) -> bool:
        """The deletion order ``first ≺ second`` (Section III-B).

        ``e1 ≺ e2`` iff ``t(e1) < t(e2)``, or ``t(e1) = t(e2)`` and
        ``l(e1) <= l(e2)``.  Anchored edges compare as "last" (infinite
        trussness), so every non-anchored edge precedes every anchor.
        """
        t1, t2 = self.trussness(first), self.trussness(second)
        if t1 != t2:
            return t1 < t2
        return self.layer(first) <= self.layer(second)

    @property
    def k_max(self) -> int:
        return self.decomposition.k_max

    def non_anchor_edges(self) -> Iterator[Edge]:
        """All edges that are not anchored (candidate anchors / gain carriers)."""
        for edge in self.graph.edges():
            if edge not in self.anchors:
                yield edge

    # ------------------------------------------------------------------
    # Triangle queries used by the follower machinery
    # ------------------------------------------------------------------
    @property
    def index(self) -> GraphIndex:
        """The shared integer-indexed kernel snapshot of the graph.

        The index is cached on the graph itself (invalidated by mutation), so
        every state, follower computation and greedy round over the same
        graph shares one set of precomputed triangle lists.
        """
        return GraphIndex.of(self.graph)

    def kernel_views(self) -> Tuple[GraphIndex, List[float], List[float], bytearray]:
        """Dense per-edge-id views ``(index, trussness, layer, anchor_mask)``.

        ``trussness[eid]`` / ``layer[eid]`` mirror :meth:`trussness` /
        :meth:`layer` (anchored edges hold ``inf``), and ``anchor_mask`` is a
        0/1 byte per edge.  Built once per state (the decomposition is fixed)
        and shared by the follower machinery and the component tree, which
        replaces per-query tuple hashing with list indexing.  Treat all three
        as read-only.
        """
        index = GraphIndex.of(self.graph)
        attached = self.decomposition.dense_views
        if attached is not None and attached[0] is index:
            return attached
        cached = getattr(self, "_kernel_views", None)
        if cached is not None and cached[0] is index:
            return cached
        m = index.num_edges
        eid_of = index.eid_of
        trussness: List[float] = [math.inf] * m
        layer: List[float] = [math.inf] * m
        layer_dict = self.decomposition.layer
        for edge, value in self.decomposition.trussness.items():
            eid = eid_of[edge]
            trussness[eid] = value
            layer[eid] = layer_dict[edge]
        anchor_mask = bytearray(m)
        for edge in self.anchors:
            anchor_mask[eid_of[edge]] = 1
        views = (index, trussness, layer, anchor_mask)
        self._kernel_views = views
        return views

    def triangle_list(self, edge: Edge) -> List[Tuple[Edge, Edge, Vertex]]:
        """The triangles through ``edge`` as a cached list (do not mutate).

        This is the hot-path variant of :meth:`triangles`: the id->tuple
        conversion happens once per edge per graph snapshot, so the repeated
        queries of the support-check / retract machinery cost a list lookup.
        """
        index = self.index
        return index.triangle_tuples(index.eid_of[self.graph.require_edge(edge)])

    def triangles(self, edge: Edge) -> Iterator[Tuple[Edge, Edge, Vertex]]:
        """Yield ``(edge_uw, edge_vw, w)`` for every triangle through ``edge``."""
        return iter(self.triangle_list(edge))

    def neighbor_edges(self, edge: Edge) -> Set[Edge]:
        """All edges sharing at least one triangle with ``edge``."""
        result: Set[Edge] = set()
        for e1, e2, _w in self.triangle_list(edge):
            result.add(e1)
            result.add(e2)
        return result

    # ------------------------------------------------------------------
    # Gain bookkeeping
    # ------------------------------------------------------------------
    def trussness_gain_from(self, baseline: "TrussState") -> int:
        """Total trussness gain of this state relative to ``baseline``.

        The sum runs over edges that are not anchored in *this* state
        (Definition 4: edges of ``E \\ A``).
        """
        gain = 0
        for edge, old_value in baseline.decomposition.trussness.items():
            if edge in self.anchors:
                continue
            new_value = self.decomposition.trussness.get(edge)
            if new_value is None:
                raise InvalidEdgeError(edge)
            if new_value < old_value:
                raise InvalidParameterError(
                    f"trussness of {edge!r} decreased; anchoring cannot do that"
                )
            gain += new_value - old_value
        return gain

    def followers_relative_to(self, baseline: "TrussState") -> Set[Edge]:
        """Edges whose trussness is strictly larger than in ``baseline``.

        Used as the ground-truth follower computation: anchor an edge,
        recompute the decomposition, and diff.
        """
        result: Set[Edge] = set()
        for edge, old_value in baseline.decomposition.trussness.items():
            if edge in self.anchors:
                continue
            if self.decomposition.trussness.get(edge, old_value) > old_value:
                result.add(edge)
        return result

    def trussness_values(self) -> Dict[Edge, int]:
        """A copy of the trussness mapping for non-anchored edges."""
        return dict(self.decomposition.trussness)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrussState(n={self.graph.num_vertices}, m={self.graph.num_edges}, "
            f"anchors={len(self.anchors)}, k_max={self.k_max})"
        )
