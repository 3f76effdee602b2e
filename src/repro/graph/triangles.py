"""Triangle and support utilities (Definition 1 and Definition 6 of the paper).

The truss model is built entirely on triangles: the *support* of an edge is
the number of triangles containing it, two edges are *neighbour-edges* when
they share a triangle, and *triangle connectivity* is the transitive closure
of sharing a triangle.  These helpers are used by the truss decomposition,
the follower computation and the truss component tree.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.graph.graph import Edge, Graph, Vertex, normalize_edge
from repro.graph.index import GraphIndex


def common_neighbors(graph: Graph, u: Vertex, v: Vertex) -> Set[Vertex]:
    """Vertices adjacent to both ``u`` and ``v``."""
    # C-level set intersection (CPython iterates the smaller operand itself),
    # instead of a Python-level membership comprehension.
    return graph.neighbors(u) & graph.neighbors(v)


def edge_support(graph: Graph, edge: Edge) -> int:
    """Support of ``edge`` = number of triangles containing it (Definition 1)."""
    u, v = graph.require_edge(edge)
    return len(common_neighbors(graph, u, v))


def support_map(graph: Graph) -> Dict[Edge, int]:
    """Support of every edge, computed in one pass over the triangles.

    Each triangle is enumerated once and increments all three of its edges,
    instead of intersecting the endpoint neighbourhoods once per edge (which
    visits every triangle three times).
    """
    support = dict.fromkeys(graph.edges(), 0)
    for u, v, w in triangles_of_graph(graph):
        # (u, v, w) is sorted, so all three tuples are already canonical.
        support[(u, v)] += 1
        support[(u, w)] += 1
        support[(v, w)] += 1
    return support


def triangles_of_edge(graph: Graph, edge: Edge) -> Iterator[Tuple[Vertex, Vertex, Vertex]]:
    """Yield the triangles ``(u, v, w)`` that contain ``edge = (u, v)``."""
    u, v = graph.require_edge(edge)
    for w in common_neighbors(graph, u, v):
        yield (u, v, w)


def triangles_of_graph(graph: Graph) -> Iterator[Tuple[Vertex, Vertex, Vertex]]:
    """Yield every triangle of the graph exactly once (vertices sorted)."""
    for u in graph.vertices():
        higher_u = {x for x in graph.neighbors(u) if x > u}
        for v in higher_u:
            for w in higher_u & graph.neighbors(v):
                if w > v:
                    yield (u, v, w)


def neighbor_edges(graph: Graph, edge: Edge) -> Iterator[Tuple[Edge, Edge, Vertex]]:
    """Yield ``(edge_uw, edge_vw, w)`` for every triangle through ``edge = (u, v)``.

    The two returned edges are the *neighbour-edges* of ``edge`` inside that
    triangle (paper, Definition 6 discussion).  The apex vertex ``w`` is
    returned as well because the follower computation needs to know which
    triangle the two neighbour-edges came from.
    """
    u, v = graph.require_edge(edge)
    for w in common_neighbors(graph, u, v):
        yield (normalize_edge(u, w), normalize_edge(v, w), w)


def triangle_connected_components(
    graph: Graph, edges: Optional[Iterable[Edge]] = None
) -> List[Set[Edge]]:
    """Partition ``edges`` into triangle-connected groups (Definition 6).

    Two edges belong to the same group when they are connected by a chain of
    triangles *whose edges are all inside the considered edge set*.  If
    ``edges`` is ``None`` the whole edge set of ``graph`` is used.

    Edges that participate in no triangle inside the set form singleton
    groups; this mirrors the BuildTree routine of the paper which assigns
    every edge to exactly one tree node.

    Runs on the shared :class:`~repro.graph.index.GraphIndex`: a single pass
    over the precomputed triangle triples with an integer union-find, instead
    of re-enumerating every triangle of the graph per call (the truss
    component tree calls this once per trussness level, every greedy round).
    """
    index = GraphIndex.of(graph)
    eid_of = index.eid_of
    if edges is None:
        member = bytearray(b"\x01") * index.num_edges if index.num_edges else bytearray()
        member_ids = list(range(index.num_edges))
    else:
        member = bytearray(index.num_edges)
        member_ids = []
        for e in edges:
            eid = eid_of[graph.require_edge(e)]
            if not member[eid]:
                member[eid] = 1
                member_ids.append(eid)

    parent = list(range(index.num_edges))

    def find_id(e: int) -> int:
        root = e
        while parent[root] != root:
            root = parent[root]
        while parent[e] != root:
            parent[e], e = root, parent[e]
        return root

    for e1, e2, e3 in index.triangles:
        if member[e1] and member[e2] and member[e3]:
            r1 = find_id(e1)
            r2 = find_id(e2)
            if r2 != r1:
                parent[r2] = r1
            r3 = find_id(e3)
            if r3 != r1:
                parent[r3] = r1

    edge_of = index.edge_of
    groups_by_root: Dict[int, Set[Edge]] = {}
    for eid in member_ids:
        groups_by_root.setdefault(find_id(eid), set()).add(edge_of[eid])
    return list(groups_by_root.values())
