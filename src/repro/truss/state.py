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
from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, List, Set, Tuple

import numpy as _np

from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.index import GraphIndex
from repro.truss.decomposition import TrussDecomposition, truss_decomposition
from repro.utils.errors import InvalidEdgeError, InvalidParameterError

#: Trussness value used for anchored edges in comparisons (never peeled).
ANCHOR_TRUSSNESS = math.inf


def _held(t_other, l_other, t_edge, l_edge):
    """Whether the other edge of a triangle still stood when the peel removed
    the edge: anchored (``inf``), of higher trussness, or of the same
    trussness and a layer no lower (elementwise over NumPy arrays)."""
    return (t_other > t_edge) | ((t_other == t_edge) & (l_other >= l_edge))


def _eid(index: GraphIndex, edge: Edge) -> int:
    """The dense id of ``edge`` in ``index``; :class:`InvalidEdgeError` if
    the graph has no such edge."""
    edge = normalize_edge(*edge)
    eid = index.eid_of.get(edge)
    if eid is None:
        raise InvalidEdgeError(edge)
    return eid


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
        index, trussness, _layer, _mask = self.kernel_views()
        return trussness[_eid(index, edge)]

    def layer(self, edge: Edge) -> float:
        """``l(e)``; anchored edges report ``+inf`` (they are never peeled)."""
        index, _trussness, layer, _mask = self.kernel_views()
        return layer[_eid(index, edge)]

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
        """The integer-indexed kernel snapshot the decomposition is stated on.

        It is the graph's cached index (:meth:`GraphIndex.of`) of the moment
        the state was computed, so every state, follower computation and
        greedy round over the same graph shares one set of precomputed
        triangle lists.
        """
        return self.kernel_views()[0]

    def kernel_views(self) -> Tuple[GraphIndex, List[float], List[float], bytearray]:
        """Dense per-edge-id views ``(index, trussness, layer, anchor_mask)``.

        ``trussness[eid]`` / ``layer[eid]`` mirror :meth:`trussness` /
        :meth:`layer` (anchored edges hold ``inf``), and ``anchor_mask`` is a
        0/1 byte per edge.  They are the decomposition's own data, shared by
        the follower machinery and the component tree, which replaces
        per-query tuple hashing with list indexing.  Treat all three as
        read-only.

        Raises :class:`InvalidParameterError` once the graph has been
        mutated after the state was computed: the views describe the old
        edge set, so no reading of them is right for the new one.
        """
        views = self.decomposition.dense_views
        if views[0].version != self.graph._version:
            raise InvalidParameterError(
                "the graph was mutated after this truss state was computed; "
                "compute a new state"
            )
        return views

    def array_views(self) -> Tuple[_np.ndarray, _np.ndarray]:
        """Read-only float64 ``(trussness, layer)`` arrays per dense edge id.

        The NumPy twins of :meth:`kernel_views`' lists, equal to them element
        for element (anchored edges hold ``inf``), for the passes that read
        every edge at once.  Raises like :meth:`kernel_views` on a state
        whose graph was mutated.
        """
        self.kernel_views()
        return self.decomposition.dense_arrays

    def tight_flags(self) -> bytearray:
        """Per-edge-id 0/1 flags: which non-anchored edges are *tight*.

        Edge ``e`` is tight when it closes exactly ``t(e) - 2`` triangles
        whose two other edges are each an anchor, of trussness ``> t(e)``,
        or of trussness ``t(e)`` with layer ``>= l(e)``.  Those are the
        triangles ``e`` still had when the peel removed it in wave ``l(e)``
        of phase ``t(e)``, so there are never more than ``t(e) - 2`` of them.
        The follower search uses the flags to screen its first survivor (see
        :func:`repro.core.followers.followers_support_check`).

        Computed once per state (the decomposition is fixed) in the same
        NumPy pass over the CSR hit table as :meth:`starter_flags`, and
        cached.  Treat the result as read-only.
        """
        return self._screen_flags()[0]

    def starter_flags(self) -> bytearray:
        """Per-edge-id 0/1 flags: which edges ``x`` have a *starter*.

        A starter of ``x`` is a neighbour-edge ``e`` in a triangle
        ``{x, e, c}`` such that ``e`` is not anchored, comes strictly after
        ``x`` in the deletion order (``t(e) > t(x)``, or ``t(e) = t(x)`` and
        ``l(e) > l(x)``), is tight (:meth:`tight_flags`), and ``c`` holds for
        ``e`` (an anchor, ``t(c) > t(e)``, or ``t(c) = t(e)`` and
        ``l(c) >= l(e)``).  Only a starter can be the first edge to survive
        Algorithm 3's search from ``x``, and a candidate scope only removes
        starters, so an unflagged edge has no follower in any scope.  This
        is the early return of
        :func:`repro.core.followers.followers_support_check`, computed for
        every edge at once.  Anchored edges are never flagged.

        The flags need the state's exact layers, so they are defined for
        decomposed states only, never for a trussness-only overlay.
        Computed once per state in one NumPy pass over the CSR hit table,
        shared with :meth:`tight_flags`, and cached.  Treat the result as
        read-only.
        """
        return self._screen_flags()[1]

    def _screen_flags(self) -> Tuple[bytearray, bytearray]:
        """``(tight, starter)`` flags from one pass over the hit table.

        Row ``(x; e1, e2)`` counts toward ``x``'s held triangles (tightness)
        and, read as ``(x; e, c)`` both ways round, can make ``e`` a starter
        of ``x``; both tests read the same six gathers.
        """
        index = self.index
        cached = getattr(self, "_flags", None)
        if cached is not None:
            return cached
        csr = index.csr
        truss, layer = self.array_views()
        base = csr.hit_bases()
        t_x, l_x = truss[base], layer[base]
        t_1, l_1 = truss[csr.hit_e1], layer[csr.hit_e1]
        t_2, l_2 = truss[csr.hit_e2], layer[csr.hit_e2]
        held = _held(t_1, l_1, t_x, l_x) & _held(t_2, l_2, t_x, l_x)
        counts = _np.bincount(base[held], minlength=index.num_edges)
        # Anchors hold inf, so ``t - 2`` never matches their (finite) count.
        tight = counts == truss - 2
        starter = _np.zeros(index.num_edges, dtype=bool)
        for e, t_e, l_e, t_c, l_c in (
            (csr.hit_e1, t_1, l_1, t_2, l_2),
            (csr.hit_e2, t_2, l_2, t_1, l_1),
        ):
            after = (t_e > t_x) | ((t_e == t_x) & (l_e > l_x))
            starter[base[tight[e] & after & _held(t_c, l_c, t_e, l_e)]] = True
        flags = (
            bytearray(tight.astype(_np.uint8).tobytes()),
            bytearray(starter.astype(_np.uint8).tobytes()),
        )
        self._flags = flags
        return flags

    # ------------------------------------------------------------------
    # Gain bookkeeping
    # ------------------------------------------------------------------
    def _trussness_deltas(self, baseline: "TrussState") -> Tuple[_np.ndarray, _np.ndarray]:
        """Dense edge ids whose trussness differs from ``baseline``, with the
        differences, over the edges anchored in neither state (one pass over
        both states' :meth:`array_views` and anchor masks)."""
        index, _truss, _layer, mask = self.kernel_views()
        base_index, _base_truss, _base_layer, base_mask = baseline.kernel_views()
        if base_index is not index and base_index.edge_of != index.edge_of:
            raise InvalidParameterError("the two states describe different graphs")
        new = self.array_views()[0]
        old = baseline.array_views()[0]
        counted = ~(_np.frombuffer(mask, dtype=bool) | _np.frombuffer(base_mask, dtype=bool))
        changed = _np.flatnonzero(counted & (new != old))
        return changed, new[changed] - old[changed]

    def trussness_gain_from(self, baseline: "TrussState") -> int:
        """Total trussness gain of this state relative to ``baseline``.

        The sum runs over edges that are not anchored in *this* state
        (Definition 4: edges of ``E \\ A``) nor in ``baseline``.
        """
        changed, deltas = self._trussness_deltas(baseline)
        decreased = changed[deltas < 0]
        if len(decreased):
            edge = self.index.edge_of[int(decreased[0])]
            raise InvalidParameterError(
                f"trussness of {edge!r} decreased; anchoring cannot do that"
            )
        return int(deltas.sum())

    def followers_relative_to(self, baseline: "TrussState") -> Set[Edge]:
        """Edges whose trussness is strictly larger than in ``baseline``.

        Used as the ground-truth follower computation: anchor an edge,
        recompute the decomposition, and diff.
        """
        changed, deltas = self._trussness_deltas(baseline)
        edge_of = self.index.edge_of
        return {edge_of[eid] for eid in changed[deltas > 0].tolist()}

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrussState(n={self.graph.num_vertices}, m={self.graph.num_edges}, "
            f"anchors={len(self.anchors)}, k_max={self.k_max})"
        )
