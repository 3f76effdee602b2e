"""Integer-indexed acceleration kernel shared by every truss hot path.

The public API of the library speaks in vertex objects and normalised edge
tuples, which is convenient but slow: every triangle query re-intersects
adjacency sets and every bookkeeping structure hashes tuples.  This module
provides :class:`GraphIndex`, a *frozen snapshot* of a :class:`Graph` in a
dense integer domain:

* vertices are mapped to dense ids ``0 .. n-1`` (insertion order) and edges
  to dense ids ``0 .. m-1`` ordered by their stable public edge id, so the
  smallest-edge-id tie-breaking used by the solvers carries over unchanged;
* the adjacency is stored CSR-style (``adj_offsets`` / ``adj_vertices`` /
  ``adj_edges``, neighbour lists sorted by vertex id);
* every triangle of the graph is enumerated exactly once at build time by
  the batched ``searchsorted`` intersection of :mod:`repro.graph.csr`; the
  arrays stay on ``index.csr`` for the vectorised peel in
  :mod:`repro.truss.peel` and the dataset cache;
* the flat edge-id triples (``triangles``, used by the union-find of
  triangle connectivity) and the per-edge tuples of ``(other_edge,
  other_edge)`` pairs (``edge_triangles``, used by the follower machinery)
  are *lazy views* over that enumeration, built on first access so cold
  decompositions never pay for them.  Both take their ints from one
  ``list(range(m))``, so an edge id is one object per index, not one per
  row;
* ``support[e]`` is the triangle count of edge ``e`` — an O(1) lookup.

Immutability / overlay contract
-------------------------------
The index never changes after construction.  Anchors and peeled edges are
modelled as *overlays* (bytearray flags, candidate sets) by the algorithms
on top; this is what lets one index serve every anchored decomposition,
follower computation and greedy round for a given graph.  The index is
cached on the graph and invalidated by a version counter that every graph
mutation bumps, so holding ``GraphIndex.of(graph)`` is always safe.
"""

from __future__ import annotations

from itertools import chain, islice
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as _np

from repro.graph.csr import CSRArrays, build_csr_arrays
from repro.graph.graph import Edge, Graph, Vertex

__all__ = ["GraphIndex"]


class GraphIndex:
    """Frozen integer-indexed snapshot of a :class:`Graph` (see module docs)."""

    __slots__ = (
        "version",
        "num_vertices",
        "num_edges",
        "vertex_of",
        "vid_of",
        "edge_of",
        "stable_ids",
        "csr",
        "adj_offsets",
        "adj_vertices",
        "adj_edges",
        "_support",
        "_eid_of",
        "_edge_ids",
        "_triangles",
        "_edge_triangles",
    )

    def __init__(self, graph: Graph, csr: Optional[CSRArrays] = None) -> None:
        self.version: int = graph._version
        #: Dense vertex id <-> vertex object.
        self.vertex_of: List[Vertex] = list(graph.vertices())
        vid_of = {u: i for i, u in enumerate(self.vertex_of)}
        self.vid_of: Dict[Vertex, int] = vid_of
        #: Dense edge id <-> canonical edge tuple, ordered by stable edge id
        #: (insertion order), so dense-id order == public-id order.  Edge ids
        #: are assigned monotonically, so the dict is almost always already
        #: in id order — detect that and skip the sort.
        stable_ids: List[int] = list(graph._edges_by_id)
        edge_of: List[Edge] = list(graph._edges_by_id.values())
        if stable_ids != sorted(stable_ids):  # C-speed check; ids are unique
            by_stable_id = sorted(zip(stable_ids, edge_of))
            stable_ids = [item[0] for item in by_stable_id]
            edge_of = [item[1] for item in by_stable_id]
        self.stable_ids = stable_ids
        self.edge_of = edge_of
        n = self.num_vertices = len(self.vertex_of)
        m = self.num_edges = len(edge_of)

        if csr is None or csr.num_edges != m or csr.num_vertices != n:
            endpoints = _np.fromiter(
                map(vid_of.__getitem__, chain.from_iterable(edge_of)),
                dtype=_np.int64,
                count=2 * m,
            ).reshape(m, 2)
            csr = build_csr_arrays(endpoints, n)
        #: The array form; the vectorised peel and the dataset cache read it
        #: directly.
        self.csr: CSRArrays = csr
        self.adj_offsets = csr.indptr
        self.adj_vertices = csr.indices
        self.adj_edges = csr.slot_eids
        self._support: Optional[List[int]] = None
        self._edge_ids: Optional[List[int]] = None
        self._triangles: Optional[List[Tuple[int, int, int]]] = None
        self._edge_triangles: Optional[List[Tuple[Tuple[int, int], ...]]] = None
        self._eid_of: Optional[Dict[Edge, int]] = None

    # ------------------------------------------------------------------
    # Cache management
    # ------------------------------------------------------------------
    @classmethod
    def of(cls, graph: Graph) -> "GraphIndex":
        """Return the (cached) index of ``graph``, rebuilding it if the graph
        was mutated since the cached snapshot was taken."""
        index = graph._index
        if index is not None and index.version == graph._version:
            return index
        index = cls(graph)
        graph._index = index
        return index

    @classmethod
    def from_csr(cls, graph: Graph, csr: CSRArrays) -> "GraphIndex":
        """Build the index of ``graph`` from precomputed ``csr`` arrays and
        cache it on the graph.

        This is the restoration path of the dataset ``.npz`` cache: the
        caller guarantees the arrays were built from a graph with the same
        dense-id domain (same edge sequence — validated upstream by the
        graph fingerprint).  Mismatched shapes are rebuilt silently, so a
        stale payload can never corrupt the index.
        """
        index = cls(graph, csr=csr)
        graph._index = index
        return index

    # ------------------------------------------------------------------
    # Lazy views
    # ------------------------------------------------------------------
    @property
    def support(self) -> List[int]:
        """``support[e]`` == number of triangles through edge ``e``
        (Definition 1).  A Python list of Python ints — the values flow into
        JSON-serialised responses.  It materialises from ``csr.support`` on
        first access (cold vectorised decompositions never touch the list
        form)."""
        support = self._support
        if support is None:
            support = self._support = self.csr.support.tolist()
        return support

    @property
    def eid_of(self) -> Dict[Edge, int]:
        """Canonical edge tuple -> dense edge id (built on first access)."""
        eid_of = self._eid_of
        if eid_of is None:
            eid_of = {e: i for i, e in enumerate(self.edge_of)}
            self._eid_of = eid_of
        return eid_of

    def _ids(self, values) -> Iterator[int]:
        """``values`` (an edge-id array) as the index's shared id ints: each
        dense edge id is one int object per index, however many triangle
        rows name it."""
        ids = self._edge_ids
        if ids is None:
            ids = self._edge_ids = list(range(self.num_edges))
        return map(ids.__getitem__, values.tolist())

    @property
    def triangles(self) -> List[Tuple[int, int, int]]:
        """Flat list of edge-id triples, one per triangle (lazy view).

        Each triangle is listed exactly once, keyed at its minimal dense
        edge id; entry order and within-triple order are unspecified (every
        consumer — union-find, per-level grouping — is order-insensitive).
        """
        triangles = self._triangles
        if triangles is None:
            csr = self.csr
            base = csr.hit_bases()
            mask = (base < csr.hit_e1) & (base < csr.hit_e2)
            triangles = list(
                zip(
                    self._ids(base[mask]),
                    self._ids(csr.hit_e1[mask]),
                    self._ids(csr.hit_e2[mask]),
                )
            )
            self._triangles = triangles
        return triangles

    @property
    def edge_triangles(self) -> List[Tuple[Tuple[int, int], ...]]:
        """Per-edge tuples of ``(e1, e2)`` pairs, one per triangle (lazy).

        ``edge_triangles[e]`` holds the two other edges of every triangle
        through ``e``, in the hit table's row order: ascending apex vid,
        ``e1`` through ``e``'s smaller-degree endpoint.  The follower
        machinery iterates these heavily, so the tuple form is built once
        from the array-domain hit table on first access and cached for the
        lifetime of the index; an edge in no triangle holds the shared
        empty tuple.  The apex vertex is not stored (no reader needs it;
        ``csr.hit_apex`` has it).
        """
        edge_triangles = self._edge_triangles
        if edge_triangles is None:
            csr = self.csr
            rows = zip(self._ids(csr.hit_e1), self._ids(csr.hit_e2))
            edge_triangles = [
                tuple(islice(rows, count)) for count in csr.support.tolist()
            ]
            self._edge_triangles = edge_triangles
        return edge_triangles

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def edge_support(self, edge: Edge) -> int:
        """O(1) support lookup for a canonical edge tuple."""
        return self.support[self.eid_of[edge]]

    def neighbors_csr(self, vid: int) -> Tuple[Sequence[int], Sequence[int]]:
        """The CSR slice of vertex ``vid``: (neighbour vids, incident eids)."""
        lo, hi = self.adj_offsets[vid], self.adj_offsets[vid + 1]
        return self.adj_vertices[lo:hi], self.adj_edges[lo:hi]

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"GraphIndex(n={self.num_vertices}, m={self.num_edges}, "
            f"triangles={self.csr.num_triangles})"
        )
