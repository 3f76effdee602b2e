"""Truss decomposition with anchor edges and peeling layers (Algorithm 1).

The decomposition assigns to every non-anchored edge ``e``:

* its *trussness* ``t(e)`` — the largest k such that a k-truss contains it
  (Definition 3), and
* its *layer* ``l(e)`` — the synchronous peeling round, inside the phase
  that removes the k-hull of ``t(e)``, in which ``e`` is removed.

Anchored edges are never removed: their support is conceptually ``+inf``
(Section II-A of the paper), so they keep closing triangles for the
remaining edges at every level of the peeling.

Layer semantics
---------------
Algorithm 1 in the paper removes one edge at a time and speaks of the
"i-th iteration".  We use the standard synchronous ("wave") definition:
round ``i`` of phase ``k`` removes exactly the edges whose support is at
most ``k - 2`` in the graph that remains after round ``i - 1``.  This
definition is deterministic (independent of tie-breaking within a round)
and is the one under which the upward-route characterisation of followers
(Lemma 2) holds; see DESIGN.md §3.5.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set

import numpy as _np

from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.index import GraphIndex
from repro.truss.peel import peel_trussness_fast
from repro.utils.errors import InvalidEdgeError, InvalidParameterError


class TrussDecomposition:
    """Result of a (possibly anchored) truss decomposition.

    Attributes
    ----------
    trussness:
        ``t(e)`` for every non-anchored edge.
    layer:
        ``l(e)``: the synchronous peeling round (1-based) within the phase
        that removed ``e``.
    anchors:
        The anchored edges (kept forever; they have no trussness entry).
    k_max:
        The largest trussness value assigned (2 if the graph has no
        non-anchored edges in triangles; 1 for an empty graph).

    The object behaves like the frozen dataclass it used to be (keyword
    construction, equality over the four attributes above), but the kernel
    paths construct it through :meth:`from_dense` with the tuple-domain
    dicts *deferred*: cold decompositions return without ever paying the
    ``m``-entry dict builds, and the dicts materialise from the dense
    arrays on first access.  The dense views are treated as immutable after
    construction (the overlay contract), so materialising late always
    yields the same dicts an eager build would have.
    """

    def __init__(
        self,
        trussness: Optional[Dict[Edge, int]] = None,
        layer: Optional[Dict[Edge, int]] = None,
        anchors: FrozenSet[Edge] = frozenset(),
        k_max: int = 1,
        dense_views: object = None,
        dense_arrays: object = None,
    ) -> None:
        self._trussness = trussness
        self._layer = layer
        self.anchors = anchors
        self.k_max = k_max
        #: Dense per-edge-id views ``(index, trussness, layer, anchor_mask)``
        #: attached by the kernel decomposition (``None`` when constructed by
        #: the oracle or by hand).  Anchored edges hold
        #: ``inf`` in the arrays.  A cache, not data: excluded from equality.
        self.dense_views = dense_views
        #: The same trussness and layer as read-only float64 NumPy arrays
        #: ``(trussness, layer)``, equal element for element to the lists of
        #: :attr:`dense_views` (``None`` when those are absent).
        self.dense_arrays = dense_arrays
        self._edge_of: Optional[Sequence[Edge]] = None

    @classmethod
    def from_dense(
        cls,
        edge_of: Sequence[Edge],
        anchors: FrozenSet[Edge],
        k_max: int,
        dense_views: object,
        dense_arrays: object,
    ) -> "TrussDecomposition":
        """Kernel constructor: dense per-eid views now, dicts on demand.

        ``edge_of`` maps dense edge ids to canonical tuples; anchors carry
        ``inf`` in the views and are dropped from the dicts when they
        materialise.
        """
        result = cls(
            anchors=anchors, k_max=k_max, dense_views=dense_views, dense_arrays=dense_arrays
        )
        result._edge_of = edge_of
        return result

    def _materialize(self) -> None:
        edge_of = self._edge_of
        index, trussness_arr, layer_arr, _mask = self.dense_views
        # C-level dict construction over all edges, then drop the (few)
        # anchors, which carry inf in the dense views.
        trussness: Dict[Edge, int] = dict(zip(edge_of, trussness_arr))
        layer: Dict[Edge, int] = dict(zip(edge_of, layer_arr))
        for edge in self.anchors:
            del trussness[edge]
            del layer[edge]
        self._trussness = trussness
        self._layer = layer

    @property
    def trussness(self) -> Dict[Edge, int]:
        if self._trussness is None:
            self._materialize()
        return self._trussness

    @property
    def layer(self) -> Dict[Edge, int]:
        if self._layer is None:
            self._materialize()
        return self._layer

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrussDecomposition):
            return NotImplemented
        return (
            self.anchors == other.anchors
            and self.k_max == other.k_max
            and self.trussness == other.trussness
            and self.layer == other.layer
        )

    __hash__ = None  # mutable caches inside; matches the old unhashable dataclass

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrussDecomposition(edges={len(self.trussness)}, "
            f"anchors={len(self.anchors)}, k_max={self.k_max})"
        )

    @cached_property
    def _hull_index(self) -> Dict[int, FrozenSet[Edge]]:
        """Edges grouped by trussness, computed once (the decomposition is
        frozen, so the grouping can never go stale)."""
        grouped: Dict[int, Set[Edge]] = {}
        for edge, value in self.trussness.items():
            grouped.setdefault(value, set()).add(edge)
        return {k: frozenset(members) for k, members in grouped.items()}

    @cached_property
    def _layer_index(self) -> Dict[int, Dict[int, FrozenSet[Edge]]]:
        """Hull edges further grouped by peeling layer, computed once."""
        grouped: Dict[int, Dict[int, Set[Edge]]] = {}
        layer = self.layer
        for edge, value in self.trussness.items():
            grouped.setdefault(value, {}).setdefault(layer[edge], set()).add(edge)
        return {
            k: {i: frozenset(members) for i, members in layers.items()}
            for k, layers in grouped.items()
        }

    def hull(self, k: int) -> Set[Edge]:
        """The k-hull: all (non-anchored) edges with trussness exactly k."""
        return set(self._hull_index.get(k, frozenset()))

    def hulls(self) -> Dict[int, Set[Edge]]:
        """All k-hulls keyed by k."""
        return {k: set(members) for k, members in self._hull_index.items()}

    def layers_of_hull(self, k: int) -> Dict[int, Set[Edge]]:
        """The layers ``L_k^i`` of the k-hull, keyed by layer index ``i``."""
        return {i: set(members) for i, members in self._layer_index.get(k, {}).items()}


def truss_decomposition(
    graph: Graph, anchors: Iterable[Edge] = ()
) -> TrussDecomposition:
    """Run truss decomposition of ``graph`` with the given anchored edges.

    Parameters
    ----------
    graph:
        The input graph (not modified).
    anchors:
        Edges treated as having infinite support.  They must exist in the
        graph; otherwise :class:`InvalidEdgeError` is raised.

    Returns
    -------
    TrussDecomposition

    Notes
    -----
    Runs on the integer-indexed kernel (:mod:`repro.graph.index`): the
    triangle lists are computed once per graph snapshot (``O(m^{1.5})``) and
    shared by every subsequent decomposition of the same graph, so anchored
    re-decompositions — the inner loop of BASE and of every greedy round —
    only pay for the bucket peeling itself.  The result is identical to
    the from-scratch oracle :func:`repro.oracles.truss_decomposition_reference`
    (the test-suite asserts this on random graphs, including anchored cases).
    """
    anchor_set: FrozenSet[Edge] = frozenset(graph.require_edge(e) for e in anchors)
    index = GraphIndex.of(graph)
    anchor_eids = [index.eid_of[e] for e in anchor_set]
    truss_ints, layer_ints, k_max = peel_trussness_fast(index, anchor_eids)
    # The kernel arrays become the dense per-eid views shared with the
    # follower machinery and the component tree: Python-int lists for the
    # scalar loops, read-only float64 arrays for the batched passes.
    # Anchors switch from the peeling sentinel 0 to the inf the state-level
    # API reports.  The tuple-domain dicts materialise lazily from the lists.
    trussness: List[float] = truss_ints.tolist()
    layer: List[float] = layer_ints.tolist()
    truss_arr = truss_ints.astype(_np.float64)
    layer_arr = layer_ints.astype(_np.float64)
    anchor_mask = bytearray(index.num_edges)
    inf = math.inf
    for eid in anchor_eids:
        anchor_mask[eid] = 1
        trussness[eid] = inf
        layer[eid] = inf
    truss_arr[anchor_eids] = inf
    layer_arr[anchor_eids] = inf
    truss_arr.flags.writeable = False
    layer_arr.flags.writeable = False
    return TrussDecomposition.from_dense(
        index.edge_of,
        anchor_set,
        k_max,
        (index, trussness, layer, anchor_mask),
        (truss_arr, layer_arr),
    )


def trussness_gain(
    before: TrussDecomposition, after: TrussDecomposition, exclude: Iterable[Edge] = ()
) -> int:
    """Total trussness gain between two decompositions (Definition 4).

    ``exclude`` is the anchor set A; anchored edges contribute no gain.
    Edges that are anchored in ``after`` but not listed in ``exclude`` are
    also skipped (they have no trussness in ``after``).
    """
    excluded = {normalize_edge(*e) for e in exclude} | set(after.anchors)
    gain = 0
    for edge, old_value in before.trussness.items():
        if edge in excluded:
            continue
        new_value = after.trussness.get(edge)
        if new_value is None:
            raise InvalidEdgeError(edge, f"edge {edge!r} missing from the second decomposition")
        if new_value < old_value:
            raise InvalidParameterError(
                f"trussness of {edge!r} decreased from {old_value} to {new_value}; "
                "anchoring can never decrease trussness"
            )
        gain += new_value - old_value
    return gain
