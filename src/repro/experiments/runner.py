"""Run every experiment of the harness and render a combined report.

Used by the CLI (``repro-atr report``) and convenient for generating the
content of EXPERIMENTS.md in one go.

Since ``repro.api`` v1 every solver invocation in the harness funnels
through the canonical :class:`repro.api.SolveSpec` ingress: experiments
resolve solvers via :meth:`ExperimentProfile.solver
<repro.experiments.config.ExperimentProfile.solver>`, which returns the
registry's :class:`~repro.core.engine.SolverSpec`; its
:meth:`~repro.core.engine.SolverSpec.__call__` builds the spec and hands
it to :meth:`~repro.core.engine.SolverEngine.solve_spec`, the same path the
CLI, the Python API and the serving layer use.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.api.spec import SCHEMA_VERSION
from repro.core.engine import available_solvers
from repro.obs.metrics import default_registry
from repro.experiments.ablation import render_ablation, run_ablation
from repro.experiments.config import ExperimentProfile, get_profile
from repro.experiments.fig5_exact import render_fig5, run_fig5
from repro.experiments.fig6_effectiveness import render_fig6, run_fig6
from repro.experiments.fig7_case_study import render_fig7, run_fig7
from repro.experiments.fig8_efficiency import render_fig8, run_fig8
from repro.experiments.fig9_scalability import render_fig9, run_fig9
from repro.experiments.fig10_reuse import render_fig10, run_fig10
from repro.experiments.fig11_distribution import render_fig11, run_fig11
from repro.experiments.table3 import render_table3, run_table3
from repro.experiments.table4_routes import render_table4, run_table4
from repro.experiments.table5_akt import render_table5, run_table5
from repro.utils.timer import timed

EXPERIMENTS: Dict[str, Tuple[Callable, Callable]] = {
    "table3": (run_table3, render_table3),
    "fig5": (run_fig5, render_fig5),
    "fig6": (run_fig6, render_fig6),
    "fig7": (run_fig7, render_fig7),
    "fig8": (run_fig8, render_fig8),
    "fig9": (run_fig9, render_fig9),
    "table4": (run_table4, render_table4),
    "fig10": (run_fig10, render_fig10),
    "table5": (run_table5, render_table5),
    "fig11": (run_fig11, render_fig11),
    "ablation": (run_ablation, render_ablation),
}


def available_experiments() -> List[str]:
    return list(EXPERIMENTS)


def run_experiment(name: str, profile: Optional[ExperimentProfile] = None) -> Tuple[dict, str]:
    """Run one experiment; returns ``(raw_result, rendered_text)``."""
    profile = profile or get_profile()
    run, render = EXPERIMENTS[name]
    result = run(profile)
    return result, render(result)


def run_all(profile: Optional[ExperimentProfile] = None, names: Optional[List[str]] = None) -> str:
    """Run the selected experiments and return one combined text report."""
    profile = profile or get_profile()
    names = names or available_experiments()
    sections: List[str] = [
        f"# ATR experiment report (profile: {profile.name})\n\n"
        f"Registered solvers: {', '.join(available_solvers())}  \n"
        f"Solve API: repro.api v{SCHEMA_VERSION}"
    ]
    registry = default_registry()
    for name in names:
        (_result, text), elapsed = timed(lambda name=name: run_experiment(name, profile))
        if registry is not None:
            # Same histogram/clock primitives as the serving metrics, so an
            # armed process sees experiment timings next to solve latencies.
            registry.histogram("experiments.run_s").observe(elapsed)
            registry.counter(f"experiments.runs.{name}").inc()
        sections.append(f"## {name}  (wall clock {elapsed:.1f}s)\n\n{text}")
    return "\n\n".join(sections)
