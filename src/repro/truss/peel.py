"""Vectorised truss peeling (Algorithm 1) over the CSR hit table.

:func:`peel_trussness_arrays` is NumPy wave peeling over
:class:`~repro.graph.csr.CSRArrays`.  Each synchronous wave is a handful of
array operations: mask the frontier, gather the frontier's hit-table rows,
scatter-subtract the support decrements, and re-threshold only the touched
edges.  Python-level iteration is per *wave*, never per edge.
:func:`peel_trussness_fast` is the entry point every decomposition call
site routes through; it adds the optional timing metric.

Wave equivalence
----------------
A sequential peel processes a wave's frontier in ascending dense-edge-id
order and checks ``alive[a] and alive[b]`` *at processing time*, so edges
removed earlier in the same wave no longer decrement.  The vectorised peel
reproduces this without sequential processing via the order-independent
rule: the hit-table row ``(base; a, b)`` of a frontier edge ``base``
applies its decrements iff neither ``a`` nor ``b`` died in an earlier wave
and, for each of them that is in the *current* wave, its id is greater
than ``base`` — i.e. exactly the rows the sequential loop executes.
Supports of edges removed in the same wave may transiently differ, but
those edges are dead either way; every surviving edge sees identical
decrements, so frontiers, layers, trussness and ``k_max`` all match the
from-scratch oracle :func:`repro.oracles.truss_decomposition_reference`
(the generator-sweep equivalence suite and the ``peel_backends`` invariant
of :mod:`repro.world` assert this).
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as _np

from repro.graph.csr import CSRArrays
from repro.graph.index import GraphIndex
from repro.obs.metrics import default_registry, now

__all__ = ["hit_rows", "peel_trussness_fast", "peel_trussness_arrays"]


def peel_trussness_arrays(
    csr: CSRArrays, anchor_eids: Sequence[int] = ()
) -> Tuple[List[int], List[int], int]:
    """Vectorised bucketed peel over :class:`CSRArrays` (Algorithm 1).

    Returns ``(trussness, layer, k_max)`` as plain Python lists indexed by
    dense edge id, with anchored edges keeping the sentinel value 0.
    """
    trussness, layer, k_max = _peel(csr, anchor_eids)
    return trussness.tolist(), layer.tolist(), k_max


def _peel(
    csr: CSRArrays, anchor_eids: Sequence[int]
) -> Tuple[_np.ndarray, _np.ndarray, int]:
    """The wave peel itself: int64 ``(trussness, layer)`` arrays and ``k_max``."""
    m = csr.num_edges
    if m == 0:
        return _np.zeros(0, dtype=_np.int64), _np.zeros(0, dtype=_np.int64), 1
    support = csr.support.copy()

    alive = _np.ones(m, dtype=bool)
    is_anchor = _np.zeros(m, dtype=bool)
    anchor_list = list(anchor_eids)
    if anchor_list:
        is_anchor[anchor_list] = True
    remaining = int(m - int(is_anchor.sum()))

    trussness = _np.zeros(m, dtype=_np.int64)
    layer = _np.zeros(m, dtype=_np.int64)
    in_wave = _np.zeros(m, dtype=bool)
    # active == alive and not anchored (the peelable frontier candidates);
    # maintained incrementally alongside ``alive``.
    active = ~is_anchor

    k = 2
    k_max = 1
    while remaining:
        threshold = k - 2
        frontier = _np.nonzero(active & (support <= threshold))[0]
        layer_index = 0
        while frontier.size:
            layer_index += 1
            trussness[frontier] = k
            layer[frontier] = layer_index
            in_wave[frontier] = True

            base, a, b = hit_rows(csr, frontier)
            ok = (
                alive[a]
                & alive[b]
                & (~in_wave[a] | (a > base))
                & (~in_wave[b] | (b > base))
            )
            touched = _np.concatenate([a[ok], b[ok]])

            remaining -= int(frontier.size)
            alive[frontier] = False
            active[frontier] = False
            in_wave[frontier] = False
            if touched.size:
                # Deduplicated decrement targets with multiplicities — the
                # touched arrays are wave-local and small, so this stays
                # O(|touched| log |touched|) instead of O(m) per wave.  The
                # unique array is sorted, so the surviving candidates are
                # the next frontier directly.
                uniq, cnts = _np.unique(touched, return_counts=True)
                support[uniq] -= cnts
                frontier = uniq[active[uniq] & (support[uniq] <= threshold)]
            else:
                frontier = _np.zeros(0, dtype=_np.int64)
        if layer_index:
            k_max = k
        k += 1

    return trussness, layer, int(k_max)


def hit_rows(
    csr: CSRArrays, eids: _np.ndarray
) -> Tuple[_np.ndarray, _np.ndarray, _np.ndarray]:
    """``(base, e1, e2)`` of every hit-table row of the edges ``eids``.

    One ragged gather (an ``arange`` plus a per-run offset), rows grouped
    by base in the order of ``eids``.  The wave loops of the full peel and
    of the engine's hull re-peel read their frontier's rows through it.
    """
    starts = csr.hit_offsets[eids]
    counts = csr.hit_offsets[eids + 1] - starts
    seg_end = _np.cumsum(counts)
    rows = _np.arange(int(counts.sum()), dtype=_np.int64) + _np.repeat(
        starts - (seg_end - counts), counts
    )
    return _np.repeat(eids, counts), csr.hit_e1[rows], csr.hit_e2[rows]


def peel_trussness_fast(
    index: GraphIndex, anchor_eids: Sequence[int] = ()
) -> Tuple[_np.ndarray, _np.ndarray, int]:
    """Peel ``index`` with the vectorised kernel.

    Returns :func:`peel_trussness_arrays`'s ``(trussness, layer, k_max)``
    for ``index.csr``, with trussness and layer as the peel's int64 arrays
    (no list conversion: the decomposition keeps them as a state's array
    views).  When a process-global metrics registry is armed
    (:func:`repro.obs.metrics.set_default_registry`) each peel's wall time
    is observed into the ``kernel.peel_s.vectorized`` histogram; unarmed,
    the cost is one module-global read and a ``None`` check.
    """
    registry = default_registry()
    if registry is None:
        return _peel(index.csr, anchor_eids)
    start = now()
    result = _peel(index.csr, anchor_eids)
    registry.histogram("kernel.peel_s.vectorized").observe(now() - start)
    return result
