"""k-truss extraction and related queries built on top of the decomposition.

These helpers answer the classic queries of the truss model (Definition 2
and Definition 9 of the paper): the k-truss subgraph, the k-hull, the
triangle-connected k-truss components, and summary statistics such as the
maximum trussness and maximum support used in the dataset table (Table III).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro.graph.graph import Edge, Graph
from repro.graph.index import GraphIndex
from repro.graph.triangles import triangle_connected_components
from repro.truss.decomposition import TrussDecomposition, truss_decomposition
from repro.utils.errors import InvalidParameterError


def k_truss(
    graph: Graph,
    k: int,
    decomposition: Optional[TrussDecomposition] = None,
    anchors: Iterable[Edge] = (),
) -> Graph:
    """Return the k-truss of ``graph`` as a new graph (Definition 2).

    Anchored edges are members of every k-truss by construction; they are
    included in the returned subgraph together with every edge whose
    trussness is at least ``k``.
    """
    if k < 2:
        raise InvalidParameterError("k must be at least 2")
    decomposition = decomposition or truss_decomposition(graph, anchors)
    members = [e for e, t in decomposition.trussness.items() if t >= k]
    members.extend(decomposition.anchors)
    return graph.edge_subgraph(members)


def k_hull(
    graph: Graph,
    k: int,
    decomposition: Optional[TrussDecomposition] = None,
) -> Set[Edge]:
    """Return the k-hull: edges with trussness exactly ``k`` (Definition 5)."""
    decomposition = decomposition or truss_decomposition(graph)
    return decomposition.hull(k)


def k_truss_components(
    graph: Graph,
    k: int,
    decomposition: Optional[TrussDecomposition] = None,
    anchors: Iterable[Edge] = (),
) -> List[Set[Edge]]:
    """Triangle-connected components of the k-truss (Definition 9).

    Each returned set of edges induces one k-truss component: a maximal
    k-truss whose edges are pairwise triangle-connected.
    """
    truss = k_truss(graph, k, decomposition, anchors)
    return triangle_connected_components(truss)


def max_trussness(graph: Graph, decomposition: Optional[TrussDecomposition] = None) -> int:
    """The maximum trussness ``k_max`` reported for each dataset in Table III."""
    decomposition = decomposition or truss_decomposition(graph)
    return decomposition.k_max


def max_support(graph: Graph) -> int:
    """The maximum edge support ``sup_max`` reported for each dataset in Table III."""
    return max(GraphIndex.of(graph).support, default=0)


def trussness_histogram(
    graph: Graph, decomposition: Optional[TrussDecomposition] = None
) -> Dict[int, int]:
    """Number of edges per trussness value (used by Fig. 11(b))."""
    decomposition = decomposition or truss_decomposition(graph)
    histogram: Dict[int, int] = {}
    for value in decomposition.trussness.values():
        histogram[value] = histogram.get(value, 0) + 1
    return dict(sorted(histogram.items()))
