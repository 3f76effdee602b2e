"""Experiment profiles: the paper's parameters scaled to pure-Python budgets.

The paper runs C++ code on SNAP graphs with up to 22 M edges, a default
anchor budget of 100 and 2000 repetitions for the random baselines.  The
profiles below keep the *structure* of every experiment but scale the knobs
so that the whole harness finishes on a laptop:

* ``quick``  — tiny smoke-test profile used by the pytest benchmarks' sanity
  checks and CI (a couple of datasets, b ≤ 3).
* ``laptop`` — the default profile used to produce EXPERIMENTS.md (all eight
  stand-in datasets, b = 8 for the overview, budget sweeps up to 10).
* ``paper``  — the paper's original parameters (b = 100, 2000 repetitions);
  provided for completeness, only practical with a lot of patience or after
  swapping the stand-ins for the real SNAP graphs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.utils.errors import InvalidParameterError


@dataclass(frozen=True)
class ExperimentProfile:
    """All tunable knobs of the experiment harness."""

    name: str
    #: Datasets included in the dataset-wide experiments (Table III, IV, V).
    datasets: Tuple[str, ...]
    #: Default anchor budget b (Table III, Table IV, Fig. 7, Fig. 10, Fig. 11).
    default_budget: int
    #: Budget sweep for Fig. 6 and Fig. 8.
    budget_sweep: Tuple[int, ...]
    #: Datasets used for the budget sweeps (the paper uses Facebook and
    #: Brightkite for Fig. 6 and all datasets for Fig. 8).
    sweep_datasets: Tuple[str, ...]
    efficiency_datasets: Tuple[str, ...]
    #: Random-baseline repetitions (2000 in the paper).
    random_repetitions: int
    #: Exact-comparison settings (Fig. 5).
    exact_datasets: Tuple[str, ...]
    exact_target_edges: int
    exact_budgets: Tuple[int, ...]
    #: Budget for which BASE is actually executed (it is infeasible beyond
    #: tiny budgets, exactly as in the paper where it only finishes on College).
    base_budget: int
    base_datasets: Tuple[str, ...]
    #: AKT comparison settings (Table V, Fig. 11).
    akt_budget: int
    akt_max_k_values: int
    akt_max_candidates: int
    akt_datasets: Tuple[str, ...]
    #: Case-study settings (Fig. 7).
    case_study_dataset: str
    case_study_budget: int
    #: Scalability settings (Fig. 9).
    scalability_datasets: Tuple[str, ...]
    scalability_rates: Tuple[float, ...]
    scalability_budget: int
    #: Reuse experiment settings (Fig. 10).
    reuse_datasets: Tuple[str, ...]
    reuse_budget: int
    #: Random seed threaded through the stochastic parts of the harness.
    seed: int = 42
    #: Solver registry names (see :mod:`repro.core.engine`) used by the
    #: harness.  Experiments resolve these through :meth:`solver`, so adding
    #: a solver to a figure is a config change, not a code edit.
    #: Primary solver whose numbers headline the tables/figures.
    primary_solver: str = "gas"
    #: Random baselines of the overview/effectiveness experiments.
    baseline_solvers: Tuple[str, ...] = ("rand", "sup", "tur")
    #: Solvers timed against each other in the efficiency sweep (Fig. 8).
    efficiency_solvers: Tuple[str, ...] = ("gas", "base+")
    #: Exhaustive solver of the quality experiment (Fig. 5).
    exact_solver: str = "exact"

    def solver(self, name: str):
        """The graph-level callable of registry solver ``name``.

        Experiments resolve their solvers here instead of calling
        :func:`repro.core.engine.get_solver` directly, so the solver names
        above are the only place a figure's solvers are chosen.  Returns
        the registry's :class:`~repro.core.engine.SolverSpec`.
        """
        from repro.core.engine import get_solver

        return get_solver(name)


_ALL = (
    "college",
    "facebook",
    "brightkite",
    "gowalla",
    "youtube",
    "google",
    "patents",
    "pokec",
)

PROFILES: Dict[str, ExperimentProfile] = {
    "quick": ExperimentProfile(
        name="quick",
        datasets=("college", "facebook"),
        default_budget=3,
        budget_sweep=(1, 2, 3),
        sweep_datasets=("facebook",),
        efficiency_datasets=("college", "facebook"),
        random_repetitions=15,
        exact_datasets=("facebook",),
        exact_target_edges=110,
        exact_budgets=(1, 2),
        base_budget=1,
        base_datasets=("college",),
        akt_budget=2,
        akt_max_k_values=3,
        akt_max_candidates=8,
        akt_datasets=("facebook",),
        case_study_dataset="gowalla",
        case_study_budget=2,
        scalability_datasets=("patents",),
        scalability_rates=(0.5, 1.0),
        scalability_budget=2,
        reuse_datasets=("facebook",),
        reuse_budget=3,
    ),
    "laptop": ExperimentProfile(
        name="laptop",
        datasets=_ALL,
        default_budget=8,
        budget_sweep=(2, 4, 6, 8, 10),
        sweep_datasets=("facebook", "brightkite"),
        efficiency_datasets=_ALL,
        random_repetitions=25,
        exact_datasets=("facebook", "brightkite"),
        exact_target_edges=55,
        exact_budgets=(1, 2, 3),
        base_budget=1,
        base_datasets=("college",),
        akt_budget=3,
        akt_max_k_values=5,
        akt_max_candidates=12,
        akt_datasets=_ALL,
        case_study_dataset="gowalla",
        case_study_budget=3,
        scalability_datasets=("patents", "pokec"),
        scalability_rates=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        scalability_budget=3,
        reuse_datasets=("facebook", "gowalla"),
        reuse_budget=5,
    ),
    "paper": ExperimentProfile(
        name="paper",
        datasets=_ALL,
        default_budget=100,
        budget_sweep=(20, 40, 60, 80, 100),
        sweep_datasets=("facebook", "brightkite"),
        efficiency_datasets=_ALL,
        random_repetitions=2000,
        exact_datasets=("facebook", "brightkite"),
        exact_target_edges=200,
        exact_budgets=(1, 2, 3),
        base_budget=100,
        base_datasets=("college",),
        akt_budget=50,
        akt_max_k_values=20,
        akt_max_candidates=None,  # type: ignore[arg-type]
        akt_datasets=_ALL,
        case_study_dataset="gowalla",
        case_study_budget=3,
        scalability_datasets=("patents", "pokec"),
        scalability_rates=(0.5, 0.6, 0.7, 0.8, 0.9, 1.0),
        scalability_budget=100,
        reuse_datasets=("facebook", "gowalla"),
        reuse_budget=100,
    ),
}


def get_profile(name: str = "laptop") -> ExperimentProfile:
    """Look up a profile by name."""
    try:
        return PROFILES[name]
    except KeyError as exc:
        raise InvalidParameterError(
            f"unknown profile {name!r}; available: {', '.join(PROFILES)}"
        ) from exc
