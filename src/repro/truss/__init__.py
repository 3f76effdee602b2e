"""Truss substrate: decomposition, trussness state, k-trusses and k-hulls.

This package implements Algorithm 1 of the paper (truss decomposition) with
two extensions needed by the ATR algorithms:

* *anchor edges* — edges whose support is treated as infinite; they are never
  peeled and therefore keep contributing triangles at every level, and
* *peeling layers* — inside each k-hull, the synchronous round in which an
  edge is peeled (``l(e)`` in the paper), which defines the deletion order
  ``e1 ≺ e2`` used by the upward-route machinery.
"""

from repro.truss.decomposition import TrussDecomposition, truss_decomposition
from repro.truss.ktruss import (
    k_hull,
    k_truss,
    k_truss_components,
    max_support,
    max_trussness,
    trussness_histogram,
)
from repro.truss.state import ANCHOR_TRUSSNESS, TrussState

__all__ = [
    "TrussDecomposition",
    "truss_decomposition",
    "TrussState",
    "ANCHOR_TRUSSNESS",
    "k_truss",
    "k_hull",
    "k_truss_components",
    "max_support",
    "max_trussness",
    "trussness_histogram",
]
