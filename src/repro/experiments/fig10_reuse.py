"""Fig. 10 (Exp-8) — proportion of reusable follower results.

During a GAS run, every candidate edge's cached follower entries are
classified after each committed anchor as fully reusable (FR), partially
reusable (PR) or non-reusable (NR).  The paper reports that more than 80 %
of results are fully reusable, which is why GAS beats BASE+.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.datasets import load_dataset
from repro.experiments.config import ExperimentProfile, get_profile
from repro.experiments.reporting import format_bar_chart


def run_fig10(profile: Optional[ExperimentProfile] = None) -> Dict[str, object]:
    profile = profile or get_profile()
    gas = profile.solver(profile.primary_solver)
    datasets: Dict[str, Dict[str, float]] = {}
    for name in profile.reuse_datasets:
        graph = load_dataset(name)
        result = gas(graph, profile.reuse_budget)
        rounds: List[Dict[str, float]] = result.extra.get("reuse_stats", [])
        if rounds:
            averaged = {
                key: sum(r[key] for r in rounds) / len(rounds) for key in ("FR", "PR", "NR")
            }
        else:
            averaged = {"FR": 0.0, "PR": 0.0, "NR": 0.0}
        datasets[name] = {
            **{key: round(value, 4) for key, value in averaged.items()},
            "rounds": len(rounds),
            "gain": result.gain,
        }
    return {"datasets": datasets, "budget": profile.reuse_budget}


def render_fig10(result: Dict[str, object]) -> str:
    parts: List[str] = []
    for name, payload in result["datasets"].items():
        fractions = {key: payload[key] for key in ("FR", "PR", "NR")}
        parts.append(
            format_bar_chart(
                fractions,
                title=(
                    f"Fig. 10 reproduction (reuse proportions on {name}, "
                    f"b={result['budget']}, averaged over {payload['rounds']} rounds)"
                ),
            )
        )
    return "\n\n".join(parts)
