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

* ``endpoints`` — ``(m, 2)`` int64 array of (smaller vid, larger vid) per
  dense edge id;
* ``indptr`` / ``indices`` / ``slot_eids`` — CSR adjacency over ``2 m``
  directed slots, neighbour lists sorted by neighbour vid, each slot
  carrying the incident dense edge id;
* the *hit table*: for every triangle ``{e, e1, e2}`` and every base edge
  ``e`` of it, one row ``(e1, e2, apex_vid)``.  Rows are grouped by base
  edge (``hit_offsets[e] : hit_offsets[e + 1]``), so each triangle appears
  exactly three times — once per base edge.  This is the array form of the
  kernel's ``edge_triangles`` lists;
* ``support`` — per-edge triangle counts (``hit_offsets`` differences).

Triangle enumeration
--------------------
For each edge ``(u, v)`` the enumeration probes the adjacency of the
smaller-degree endpoint ``s`` and looks the pairs ``(l, w)`` up in the
globally sorted key array ``src * n + dst`` with one vectorised
``searchsorted`` — the classic sorted-adjacency merge intersection, batched
over all edges at once.  Every Python-level loop is over *phases*, never
over edges or triangles.
"""

from __future__ import annotations

import threading
from typing import Dict, Mapping, Optional

import numpy as _np

__all__ = ["CSRArrays", "build_csr_arrays", "csr_payload", "csr_from_payload"]

#: Bump when the array layout changes: persisted caches with a different
#: version are rebuilt instead of misread.
CSR_FORMAT_VERSION = 1

#: Largest n*n for which triangle membership tests use a dense slot table
#: (int32, 128 MB at the cap) instead of per-probe binary search.  The
#: table maps ``src * n + dst`` directly to its CSR slot (offset by one, 0
#: meaning "no such edge"), so a probe resolves membership *and* the hit's
#: edge id with a single gather — no binary search on the hot path.
_MEMBERSHIP_TABLE_CAP = 1 << 25

#: Shared scratch for the slot table.  Zeroing (and first-touch page
#: faulting) tens of MB per build dominates cold index builds, so one table
#: is kept module-global and *reset by un-scattering the same keys* after
#: use — O(2m) instead of O(n^2).  The lock is taken non-blocking: a
#: concurrent build simply allocates its own fresh table instead of waiting.
_scratch_lock = threading.Lock()
_scratch_slots = None


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

    @property
    def num_triangles(self) -> int:
        """Number of distinct triangles (each hit-table row counts one base)."""
        return len(self.hit_e1) // 3

    def hit_bases(self):
        """Base edge id per hit-table row (reconstructed from the offsets)."""
        return _np.repeat(
            _np.arange(self.num_edges, dtype=_np.int64),
            _np.diff(self.hit_offsets),
        )

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
    # combined key ``src * n + dst`` (one argsort beats a two-key lexsort;
    # int64 keys overflow only past ~3e9 vertices).  slot_eids maps each
    # slot back to its dense edge id.
    eid_range = _np.arange(m, dtype=_np.int64)
    src = _np.concatenate([a, b])
    dst = _np.concatenate([b, a])
    eids = _np.concatenate([eid_range, eid_range])
    keys = src * n + dst
    order = _np.argsort(keys)
    sorted_keys = keys[order]
    indices = dst[order]
    slot_eids = eids[order]
    degrees = _np.bincount(src, minlength=n)
    indptr = _np.zeros(n + 1, dtype=_np.int64)
    _np.cumsum(degrees, out=indptr[1:])

    # Triangle enumeration: probe the smaller-degree endpoint ``s`` of each
    # edge and search the pairs (l, w) in the globally sorted key array
    # src * n + dst.  int64 keys overflow only past ~3e9 vertices.
    deg_a = degrees[a]
    deg_b = degrees[b]
    swap = deg_b < deg_a
    s = _np.where(swap, b, a)
    l = _np.where(swap, a, b)
    lengths = degrees[s]
    total = int(lengths.sum())
    if total == 0:
        support = _np.zeros(m, dtype=_np.int64)
        return CSRArrays(
            num_vertices=n,
            num_edges=m,
            endpoints=endpoints,
            indptr=indptr,
            indices=indices,
            slot_eids=slot_eids,
            support=support,
            hit_offsets=_np.zeros(m + 1, dtype=_np.int64),
            hit_e1=empty,
            hit_e2=empty,
            hit_apex=empty,
        )
    seg_end = _np.cumsum(lengths)
    # Flat slot positions of every probe: for edge e the run covers the CSR
    # slice of s[e].  (arange + per-run delta) — one repeat, not two.
    pos = _np.arange(total, dtype=_np.int64) + _np.repeat(
        indptr[s] - (seg_end - lengths), lengths
    )
    probe_w = indices[pos]
    probe_keys = _np.repeat(l, lengths) * n + probe_w
    # Probes where w == l (the probed neighbour is the other endpoint) build
    # the self-loop key l*n+l, which never exists — no filter needed.
    if n * n <= _MEMBERSHIP_TABLE_CAP:
        # O(1) membership via the dense slot table (n^2 int32 cells): one
        # scatter of the 2m edge keys, one gather per probe.  The gathered
        # value is the hit's CSR slot + 1, so the (l, w) edge id comes for
        # free — no binary search anywhere on this path.
        global _scratch_slots
        slot_plus_one = _np.arange(1, 2 * m + 1, dtype=_np.int32)
        if _scratch_lock.acquire(blocking=False):
            try:
                if _scratch_slots is None or len(_scratch_slots) < n * n:
                    _scratch_slots = _np.zeros(n * n, dtype=_np.int32)
                table = _scratch_slots
                try:
                    table[sorted_keys] = slot_plus_one
                    probe_slots = table[probe_keys]
                finally:
                    # Restore the all-zeros invariant for the next build.
                    table[sorted_keys] = 0
            finally:
                _scratch_lock.release()
        else:  # pragma: no cover - only under concurrent index builds
            table = _np.zeros(n * n, dtype=_np.int32)
            table[sorted_keys] = slot_plus_one
            probe_slots = table[probe_keys]
        hit_pos = _np.nonzero(probe_slots)[0]
        hit_e2_slots = probe_slots[hit_pos].astype(_np.int64) - 1
    else:
        found = _np.searchsorted(sorted_keys, probe_keys)
        hit = sorted_keys[_np.minimum(found, 2 * m - 1)] == probe_keys
        hit_pos = _np.nonzero(hit)[0]
        hit_e2_slots = _np.searchsorted(sorted_keys, probe_keys[hit_pos])

    # Base edge of a flat probe index = the segment it falls in.  A full
    # repeat + gather beats per-hit binary search on ``seg_end``.  The
    # result is non-decreasing because hit_pos is ascending.
    hit_base = _np.repeat(eid_range, lengths)[hit_pos]
    hit_slots = pos[hit_pos]
    hit_e1 = slot_eids[hit_slots]  # the (s, w) edge of each hit
    hit_apex = probe_w[hit_pos]
    hit_e2 = slot_eids[hit_e2_slots]  # the (l, w) edge of each hit
    support = _np.bincount(hit_base, minlength=m)
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
