"""Core ATR algorithms: the paper's primary contribution.

Public entry points
-------------------
* :func:`repro.core.followers.compute_followers` — followers of one anchor
  edge (three interchangeable methods, Section III-B).
* :class:`repro.core.component_tree.TrussComponentTree` — the truss component
  tree of Section III-C.
* :func:`repro.core.gas.gas` — the GAS algorithm (Algorithm 6).
* :func:`repro.core.greedy.base_greedy` / :func:`repro.core.greedy.base_plus_greedy`
  — the BASE and BASE+ baselines.
* :func:`repro.core.exact.exact_atr` — exhaustive optimum for tiny instances.
* :mod:`repro.core.heuristics` — the Rand / Sup / Tur random baselines.
* :mod:`repro.core.akt` — the vertex-anchoring AKT baseline.
* :mod:`repro.core.edge_deletion` — the edge-deletion baseline of the case study.
* :class:`repro.core.engine.SolverEngine` — the shared session layer every
  solver runs on (solver registry, incremental re-peeling).
"""

from repro.core.akt import akt_greedy, anchored_k_truss
from repro.core.component_tree import TreeNode, TrussComponentTree
from repro.core.edge_deletion import edge_deletion_baseline
from repro.core.engine import (
    SolveSpec,
    SolverEngine,
    SolverSpec,
    available_solvers,
    get_solver,
    register_solver,
    solver_table,
)
from repro.core.exact import exact_atr
from repro.core.followers import (
    FollowerMethod,
    compute_followers,
    followers_by_recompute,
    followers_candidate_peel,
    followers_support_check,
    trussness_gain_of_anchor,
)
from repro.core.gas import gas
from repro.core.greedy import base_greedy, base_plus_greedy
from repro.core.heuristics import random_baseline, support_baseline, upward_route_baseline
from repro.core.reduction import MaxCoverageInstance, build_atr_instance_from_coverage
from repro.core.result import AnchorResult, evaluate_anchor_set
from repro.core.upward_route import (
    upward_route_edges,
    upward_route_size,
    upward_route_sizes,
    upward_route_statistics,
)

__all__ = [
    "FollowerMethod",
    "compute_followers",
    "followers_by_recompute",
    "followers_candidate_peel",
    "followers_support_check",
    "trussness_gain_of_anchor",
    "TrussComponentTree",
    "TreeNode",
    "SolveSpec",
    "SolverEngine",
    "SolverSpec",
    "available_solvers",
    "get_solver",
    "register_solver",
    "solver_table",
    "gas",
    "base_greedy",
    "base_plus_greedy",
    "exact_atr",
    "random_baseline",
    "support_baseline",
    "upward_route_baseline",
    "akt_greedy",
    "anchored_k_truss",
    "edge_deletion_baseline",
    "AnchorResult",
    "evaluate_anchor_set",
    "upward_route_edges",
    "upward_route_size",
    "upward_route_sizes",
    "upward_route_statistics",
    "MaxCoverageInstance",
    "build_atr_instance_from_coverage",
]
