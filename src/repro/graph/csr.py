"""Array-native CSR adjacency and triangle enumeration (NumPy kernel).

This module is the array substrate of the integer kernel in
:mod:`repro.graph.index`: the same dense vertex/edge-id domain, with every
structure a NumPy array and the triangle enumeration a single batched
``searchsorted`` pass instead of per-pair set intersections.
:class:`GraphIndex` builds itself *from* these arrays and exposes the
Python-list views the engine, follower and component-tree layers read.

Representation
--------------
``CSRArrays`` holds, for a graph with ``n`` vertices and ``m`` edges (both
in the dense-id domain of :class:`~repro.graph.index.GraphIndex`):

* ``endpoints`` — ``(m, 2)`` int64 array of the two endpoint vids of each
  dense edge id (``GraphIndex`` passes them in canonical-tuple order);
* ``indptr`` / ``indices`` / ``slot_eids`` — CSR adjacency over ``2 m``
  directed slots, neighbour lists sorted by neighbour vid, each slot
  carrying the incident dense edge id;
* the *hit table*: for every triangle ``{e, e1, e2}`` and every base edge
  ``e`` of it, one row ``(e1, e2, apex_vid)``.  Rows are grouped by base
  edge (``hit_offsets[e] : hit_offsets[e + 1]``), so each triangle appears
  exactly three times — once per base edge.  ``hit_e1`` / ``hit_e2`` are
  the array form of the kernel's ``edge_triangles`` pairs; ``hit_apex`` is
  kept for the persisted format;
* ``support`` — per-edge triangle counts (``hit_offsets`` differences).

Triangle enumeration
--------------------
Every edge is oriented from its lower to its higher ``(degree, vid)``
rank.  For each oriented edge ``u -> v`` the out-neighbours ``w`` of ``v``
are probed for an oriented edge ``u -> w`` with one vectorised
``searchsorted`` over the ``m`` sorted oriented keys ``src * n + dst``, so
each triangle is found exactly once, at its rank-ordered vertices
``u < v < w`` (Chiba & Nishizeki, "Arboricity and subgraph listing
algorithms", SIAM J. Comput. 14(1), 1985; Latapy, "Main-memory triangle
computations for very large (sparse (power-law)) graphs", Theoretical
Computer Science 407, 2008).  Degree orientation keeps out-degrees small,
so the probes number far fewer than the per-edge smaller-endpoint scan,
and the working set is ``O(m + probes)`` arrays — no per-vertex-pair
table.  Every Python-level loop is over *phases*, never over edges or
triangles.

Each triangle then emits its three hit rows, sorted by ``base * n +
apex``: rows are grouped by base edge in ascending apex vid, ``hit_e1`` is
the edge through the base's smaller-degree endpoint (``endpoints[base,
0]`` on ties) and ``hit_e2`` the edge through the other endpoint.

All keys are int64: ``src * n + dst`` and the rank ``degree * n + vid``
stay below ``n * n``, the row key below ``m * n``, so the enumeration is
exact while ``n * max(n, m) < 2**63`` (about 3e9 vertices).
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional

import numpy as _np

__all__ = ["CSRArrays", "build_csr_arrays", "csr_payload", "csr_from_payload"]

#: Bump when the array layout changes: persisted caches with a different
#: version are rebuilt instead of misread.
CSR_FORMAT_VERSION = 1

class CSRArrays:
    """Frozen array-domain snapshot of a graph (see module docs).

    Instances are produced by :func:`build_csr_arrays` (or restored from a
    persisted payload by :func:`csr_from_payload`) and are never mutated:
    like :class:`~repro.graph.index.GraphIndex`, all per-run state lives in
    overlays owned by the algorithms on top.
    """

    __slots__ = (
        "num_vertices",
        "num_edges",
        "endpoints",
        "indptr",
        "indices",
        "slot_eids",
        "support",
        "hit_offsets",
        "hit_e1",
        "hit_e2",
        "hit_apex",
        "_hit_bases",
    )

    def __init__(
        self,
        num_vertices: int,
        num_edges: int,
        endpoints,
        indptr,
        indices,
        slot_eids,
        support,
        hit_offsets,
        hit_e1,
        hit_e2,
        hit_apex,
    ) -> None:
        self.num_vertices = num_vertices
        self.num_edges = num_edges
        self.endpoints = endpoints
        self.indptr = indptr
        self.indices = indices
        self.slot_eids = slot_eids
        self.support = support
        self.hit_offsets = hit_offsets
        self.hit_e1 = hit_e1
        self.hit_e2 = hit_e2
        self.hit_apex = hit_apex
        self._hit_bases = None

    @property
    def num_triangles(self) -> int:
        """Number of distinct triangles (each hit-table row counts one base)."""
        return len(self.hit_e1) // 3

    def hit_bases(self):
        """Base edge id per hit-table row (reconstructed from the offsets).

        Built on first use and kept, like the rest of the snapshot: every
        state's batched passes (tight and starter flags, route sizes) read
        it.  Treat it as read-only.
        """
        bases = self._hit_bases
        if bases is None:
            bases = _np.repeat(
                _np.arange(self.num_edges, dtype=_np.int64),
                _np.diff(self.hit_offsets),
            )
            bases.flags.writeable = False
            self._hit_bases = bases
        return bases

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"CSRArrays(n={self.num_vertices}, m={self.num_edges}, "
            f"triangles={self.num_triangles})"
        )


def build_csr_arrays(endpoints, num_vertices: int) -> "CSRArrays":
    """Build :class:`CSRArrays` from an ``(m, 2)`` int64 endpoint array.

    ``endpoints[e]`` holds the dense vertex ids of edge ``e`` — the caller
    (``GraphIndex``) guarantees dense edge-id order == public stable-id
    order, no self loops, no duplicates.  Endpoint order within a row does
    not matter.
    """
    n = int(num_vertices)
    m = int(len(endpoints))
    empty = _np.zeros(0, dtype=_np.int64)
    if m == 0:
        return CSRArrays(
            num_vertices=n,
            num_edges=0,
            endpoints=_np.zeros((0, 2), dtype=_np.int64),
            indptr=_np.zeros(n + 1, dtype=_np.int64),
            indices=empty,
            slot_eids=empty,
            support=empty,
            hit_offsets=_np.zeros(1, dtype=_np.int64),
            hit_e1=empty,
            hit_e2=empty,
            hit_apex=empty,
        )
    endpoints = _np.ascontiguousarray(endpoints, dtype=_np.int64)
    a = endpoints[:, 0]
    b = endpoints[:, 1]

    # Directed-slot CSR: both orientations of every edge, sorted by the
    # combined key ``src * n + dst`` (one argsort beats a two-key lexsort).
    # slot_eids maps each slot back to its dense edge id.
    eid_range = _np.arange(m, dtype=_np.int64)
    src = _np.concatenate([a, b])
    dst = _np.concatenate([b, a])
    keys = src * n + dst
    order = _np.argsort(keys)
    keys = keys[order]
    src = src[order]
    indices = dst[order]
    slot_eids = _np.concatenate([eid_range, eid_range])[order]
    # Temporaries are dropped once read: the build's peak memory is a few
    # times its output (tests/test_csr_kernel.py::TestBuildMemory).
    del dst, order
    degrees = _np.bincount(src, minlength=n)
    indptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(degrees, out=indptr[1:])

    # Orientation: keep the slot u -> v of each edge whose source has the
    # lower (degree, vid) rank.  The kept slots are a subsequence of the
    # sorted CSR, so their keys stay sorted and their out-lists stay in
    # ascending vid order.
    rank = degrees * n + _np.arange(n, dtype=_np.int64)
    forward = rank[src] < rank[indices]
    out_src = src[forward]
    out_dst = indices[forward]
    out_eid = slot_eids[forward]
    out_keys = keys[forward]
    del src, keys, rank, forward
    out_degrees = _np.bincount(out_src, minlength=n)
    out_indptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(out_degrees, out=out_indptr[1:])

    # Probes: for each oriented edge u -> v (the m segments) and each
    # out-neighbour w of v, look the key u * n + w up among the oriented
    # keys.  A hit is the triangle u < v < w in rank, found exactly once.
    lengths = out_degrees[out_dst]
    seg_end = _np.cumsum(lengths)
    pos = _np.repeat(out_indptr[out_dst] - (seg_end - lengths), lengths)
    pos += _np.arange(len(pos), dtype=_np.int64)
    probe_w = out_dst[pos]
    probe_keys = _np.repeat(out_src, lengths)
    probe_keys *= n
    probe_keys += probe_w
    found = _np.searchsorted(out_keys, probe_keys)
    hit = _np.flatnonzero(out_keys[_np.minimum(found, m - 1)] == probe_keys)
    del lengths, probe_keys, out_keys
    seg = _np.searchsorted(seg_end, hit, side="right")
    u = out_src[seg]
    v = out_dst[seg]
    w = probe_w[hit]
    e_uv = out_eid[seg]
    e_vw = out_eid[pos[hit]]
    e_uw = out_eid[found[hit]]
    del pos, probe_w, found, hit, seg

    # Three hit rows per triangle, one per base edge: the base's endpoints
    # p (lower rank) and q, the apex, and the edges p-apex and q-apex.
    # Rank order puts deg[p] <= deg[q], so p is the smaller-degree
    # endpoint unless the degrees tie and endpoint 0 is q.
    base = _np.concatenate([e_uv, e_vw, e_uw])
    apex = _np.concatenate([w, u, v])
    p = _np.concatenate([u, v, u])
    q = _np.concatenate([v, w, w])
    at_p = _np.concatenate([e_uw, e_uv, e_uv])
    at_q = _np.concatenate([e_vw, e_uw, e_vw])
    p_first = (degrees[p] < degrees[q]) | (a[base] == p)
    row_order = _np.argsort(base * n + apex)
    hit_e1 = _np.where(p_first, at_p, at_q)[row_order]
    hit_e2 = _np.where(p_first, at_q, at_p)[row_order]
    hit_apex = apex[row_order]
    support = _np.bincount(base, minlength=m)
    hit_offsets = _np.zeros(m + 1, dtype=_np.int64)
    _np.cumsum(support, out=hit_offsets[1:])
    return CSRArrays(
        num_vertices=n,
        num_edges=m,
        endpoints=endpoints,
        indptr=indptr,
        indices=indices,
        slot_eids=slot_eids,
        support=support,
        hit_offsets=hit_offsets,
        hit_e1=hit_e1,
        hit_e2=hit_e2,
        hit_apex=hit_apex,
    )


# ---------------------------------------------------------------------------
# Persistence (the dataset .npz cache stores these arrays verbatim)
# ---------------------------------------------------------------------------
def csr_payload(csr: "CSRArrays") -> Dict[str, object]:
    """Flat ``name -> array`` mapping for ``np.savez`` persistence."""
    return {
        "csr_version": _np.array([CSR_FORMAT_VERSION, csr.num_vertices, csr.num_edges], dtype=_np.int64),
        "csr_endpoints": csr.endpoints,
        "csr_indptr": csr.indptr,
        "csr_indices": csr.indices,
        "csr_slot_eids": csr.slot_eids,
        "csr_support": csr.support,
        "csr_hit_offsets": csr.hit_offsets,
        "csr_hit_e1": csr.hit_e1,
        "csr_hit_e2": csr.hit_e2,
        "csr_hit_apex": csr.hit_apex,
    }


def csr_from_payload(payload: Mapping[str, object]) -> Optional["CSRArrays"]:
    """Restore :class:`CSRArrays` from a persisted payload, or ``None`` when
    the payload predates the CSR cache or uses a different format version."""
    try:
        version = payload["csr_version"]
    except KeyError:
        return None
    version = _np.asarray(version)
    if len(version) != 3 or int(version[0]) != CSR_FORMAT_VERSION:
        return None
    try:
        return CSRArrays(
            num_vertices=int(version[1]),
            num_edges=int(version[2]),
            endpoints=_np.asarray(payload["csr_endpoints"], dtype=_np.int64),
            indptr=_np.asarray(payload["csr_indptr"], dtype=_np.int64),
            indices=_np.asarray(payload["csr_indices"], dtype=_np.int64),
            slot_eids=_np.asarray(payload["csr_slot_eids"], dtype=_np.int64),
            support=_np.asarray(payload["csr_support"], dtype=_np.int64),
            hit_offsets=_np.asarray(payload["csr_hit_offsets"], dtype=_np.int64),
            hit_e1=_np.asarray(payload["csr_hit_e1"], dtype=_np.int64),
            hit_e2=_np.asarray(payload["csr_hit_e2"], dtype=_np.int64),
            hit_apex=_np.asarray(payload["csr_hit_apex"], dtype=_np.int64),
        )
    except KeyError:
        return None
