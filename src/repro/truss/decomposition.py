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
from collections.abc import ItemsView, Mapping, ValuesView
from itertools import compress
from operator import not_
from typing import Dict, FrozenSet, Iterable, Iterator, List, Set, Tuple

import numpy as _np

from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.index import GraphIndex
from repro.truss.peel import peel_trussness_fast
from repro.utils.errors import InvalidEdgeError, InvalidParameterError

_MISSING = object()


class EdgeValues(Mapping):
    """Read-only ``edge -> value`` view over one dense per-edge list.

    ``values[eid]`` belongs to ``index.edge_of[eid]``; an edge whose
    ``anchor_mask`` byte is set is not a key (anchors have no trussness and
    no layer).  Lookups go through ``index.eid_of`` and iteration walks the
    list in dense-id order, so the view holds no per-edge data of its own.
    It compares equal to the ``dict`` with the same items.
    """

    __slots__ = ("_index", "_values", "_mask")

    def __init__(self, index: GraphIndex, values: List[float], anchor_mask: bytearray) -> None:
        self._index = index
        self._values = values
        self._mask = anchor_mask

    def __getitem__(self, edge: Edge) -> int:
        eid = self._index.eid_of.get(edge)
        if eid is None or self._mask[eid]:
            raise KeyError(edge)
        return self._values[eid]

    def __iter__(self) -> Iterator[Edge]:
        return compress(self._index.edge_of, map(not_, self._mask))

    def __len__(self) -> int:
        return len(self._mask) - self._mask.count(1)

    def items(self) -> "_Items":
        return _Items(self)

    def values(self) -> "_Values":
        return _Values(self)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Mapping):
            return NotImplemented
        return len(self) == len(other) and all(
            other.get(edge, _MISSING) == value for edge, value in self.items()
        )

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"EdgeValues({len(self)} edges)"


# The item and value views walk the lists directly; the generic ones would
# look every key up through ``index.eid_of`` again.
class _Items(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[Tuple[Edge, int]]:
        view = self._mapping
        return compress(zip(view._index.edge_of, view._values), map(not_, view._mask))


class _Values(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[int]:
        view = self._mapping
        return compress(view._values, map(not_, view._mask))


class TrussDecomposition:
    """Result of a (possibly anchored) truss decomposition.

    Attributes
    ----------
    dense_views:
        ``(index, trussness, layer, anchor_mask)`` per dense edge id of
        ``index``: ``t(e)`` and ``l(e)`` (the synchronous peeling round,
        1-based, within the phase that removed ``e``) as lists of Python
        ints, ``inf`` at anchors, and a 0/1 anchor byte per edge.
    dense_arrays:
        The same trussness and layer as read-only float64 NumPy arrays
        ``(trussness, layer)``, equal to the lists element for element.
    trussness, layer:
        Read-only ``edge -> value`` views of the two lists without the
        anchors (:class:`EdgeValues`).
    anchors:
        The anchored edges (kept forever; they have no trussness entry).
    k_max:
        The largest trussness value assigned (2 if the graph has no
        non-anchored edges in triangles; 1 for an empty graph).

    Every producer — the kernel peel, the engine's incremental advance and
    the from-scratch oracle — hands over this one dense layout.  Treat all
    of it as read-only (the overlay contract); equality compares the
    anchors, ``k_max`` and the two edge views.
    """

    __slots__ = ("anchors", "k_max", "dense_views", "dense_arrays", "trussness", "layer")

    def __init__(
        self,
        anchors: FrozenSet[Edge],
        k_max: int,
        dense_views: Tuple[GraphIndex, List[float], List[float], bytearray],
        dense_arrays: Tuple[_np.ndarray, _np.ndarray],
    ) -> None:
        index, trussness, layer, anchor_mask = dense_views
        for values in dense_arrays:
            values.flags.writeable = False
        self.anchors = anchors
        self.k_max = k_max
        self.dense_views = dense_views
        self.dense_arrays = dense_arrays
        self.trussness = EdgeValues(index, trussness, anchor_mask)
        self.layer = EdgeValues(index, layer, anchor_mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrussDecomposition):
            return NotImplemented
        return (
            self.anchors == other.anchors
            and self.k_max == other.k_max
            and self.trussness == other.trussness
            and self.layer == other.layer
        )

    __hash__ = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"TrussDecomposition(edges={len(self.trussness)}, "
            f"anchors={len(self.anchors)}, k_max={self.k_max})"
        )

    def hull(self, k: int) -> Set[Edge]:
        """The k-hull: all (non-anchored) edges with trussness exactly k."""
        return {edge for edge, value in self.trussness.items() if value == k}

    def hulls(self) -> Dict[int, Set[Edge]]:
        """All k-hulls keyed by k."""
        grouped: Dict[int, Set[Edge]] = {}
        for edge, value in self.trussness.items():
            grouped.setdefault(value, set()).add(edge)
        return grouped

    def layers_of_hull(self, k: int) -> Dict[int, Set[Edge]]:
        """The layers ``L_k^i`` of the k-hull, keyed by layer index ``i``."""
        grouped: Dict[int, Set[Edge]] = {}
        for (edge, value), layer in zip(self.trussness.items(), self.layer.values()):
            if value == k:
                grouped.setdefault(layer, set()).add(edge)
        return grouped


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
    # scalar loops, float64 arrays for the batched passes.  Anchors switch
    # from the peeling sentinel 0 to the inf the state-level API reports.
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
    return TrussDecomposition(
        anchor_set, k_max, (index, trussness, layer, anchor_mask), (truss_arr, layer_arr)
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
