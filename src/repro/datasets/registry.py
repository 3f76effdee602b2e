"""Synthetic stand-ins for the eight SNAP datasets used in the paper.

The paper evaluates on College, Facebook, Brightkite, Gowalla, Youtube,
Google, Patents and Pokec (1.4 k – 22 M edges).  Those graphs cannot be
downloaded in this environment and would be far beyond pure-Python truss
decomposition anyway, so each dataset is replaced by a *seeded synthetic
stand-in* that

* keeps the paper's relative ordering by edge count,
* roughly mimics the structural flavour of the original (dense ego-network
  communities for Facebook, geographic small-world structure for
  Brightkite/Gowalla, sparse web/citation structure for Google/Patents,
  large sparse social structure for Youtube/Pokec), and
* is small enough (≈1.5 k – 35 k edges) that the whole benchmark harness
  runs on a laptop.

Every generator is deterministic for a given name, so results are
reproducible across runs and machines.  See DESIGN.md §3.1 for the
substitution rationale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, List, Optional, Sequence

from repro.graph.generators import (
    community_graph,
    grid_with_shortcuts,
    overlapping_cliques_graph,
    powerlaw_cluster_graph,
    union_of_graphs,
    watts_strogatz_graph,
)
from repro.graph.graph import Graph
from repro.truss.decomposition import truss_decomposition
from repro.truss.ktruss import max_support
from repro.utils.errors import InvalidParameterError
from repro.utils.rng import make_rng


@dataclass(frozen=True)
class DatasetSpec:
    """Description of one synthetic stand-in dataset."""

    name: str
    paper_name: str
    description: str
    builder: Callable[[], Graph]
    #: Scale factor category used by the experiment profiles.
    size_class: str  # "small" | "medium" | "large"


def _college() -> Graph:
    # CollegeMsg: small, moderately dense message network with a couple of
    # tighter friendship circles.
    sparse = powerlaw_cluster_graph(350, 4, 0.6, seed=101)
    circles = community_graph([22, 18, 15], p_in=0.5, p_out=0.01, seed=102)
    return union_of_graphs([sparse, circles])


def _facebook() -> Graph:
    # Facebook ego networks: very dense, clique-rich communities.
    return community_graph([60, 55, 50, 45, 40], p_in=0.5, p_out=0.01, seed=202)


def _brightkite() -> Graph:
    # Brightkite: location-based small-world structure.
    return watts_strogatz_graph(1500, 8, 0.15, seed=303)


def _gowalla() -> Graph:
    # Gowalla: larger location-based network with community structure.
    base = community_graph([90, 80, 70, 60, 50, 40], p_in=0.25, p_out=0.004, seed=404)
    return base


def _youtube() -> Graph:
    # Youtube: large, sparse, heavy-tailed social network with a few dense
    # community cores (the cores carry the follower cascades).
    sparse = powerlaw_cluster_graph(2400, 3, 0.3, seed=505)
    cores = community_graph([45, 40, 35], p_in=0.45, p_out=0.003, seed=506)
    return union_of_graphs([sparse, cores])


def _google() -> Graph:
    # Google web graph: sparse overall, but hub pages form locally dense
    # clusters (link farms / navigation templates).
    sparse = powerlaw_cluster_graph(3100, 3, 0.15, seed=606)
    hubs = community_graph([35, 30, 28, 25], p_in=0.45, p_out=0.002, seed=607)
    return union_of_graphs([sparse, hubs])


def _patents() -> Graph:
    # Patent citations: very sparse with small dense pockets.
    pockets = overlapping_cliques_graph(40, 6, 2, noise_edges=400, seed=707)
    sparse = powerlaw_cluster_graph(3000, 2, 0.1, seed=708)
    return union_of_graphs([pockets, sparse])


def _pokec() -> Graph:
    # Pokec: the largest social-network stand-in, mixing a heavy-tailed
    # periphery with several dense community cores.
    sparse = powerlaw_cluster_graph(4200, 4, 0.35, seed=808)
    cores = community_graph([55, 50, 45, 40], p_in=0.4, p_out=0.002, seed=809)
    return union_of_graphs([sparse, cores])


_SPECS: List[DatasetSpec] = [
    DatasetSpec(
        name="college",
        paper_name="College",
        description="CollegeMsg-like message network (smallest dataset)",
        builder=_college,
        size_class="small",
    ),
    DatasetSpec(
        name="facebook",
        paper_name="Facebook",
        description="Dense ego-network communities (highest k_max)",
        builder=_facebook,
        size_class="small",
    ),
    DatasetSpec(
        name="brightkite",
        paper_name="Brightkite",
        description="Location-based small-world network",
        builder=_brightkite,
        size_class="small",
    ),
    DatasetSpec(
        name="gowalla",
        paper_name="Gowalla",
        description="Location-based network with communities",
        builder=_gowalla,
        size_class="medium",
    ),
    DatasetSpec(
        name="youtube",
        paper_name="Youtube",
        description="Sparse heavy-tailed social network",
        builder=_youtube,
        size_class="medium",
    ),
    DatasetSpec(
        name="google",
        paper_name="Google",
        description="Sparse web graph with local clustering",
        builder=_google,
        size_class="medium",
    ),
    DatasetSpec(
        name="patents",
        paper_name="Patents",
        description="Sparse citation-style graph with dense pockets",
        builder=_patents,
        size_class="large",
    ),
    DatasetSpec(
        name="pokec",
        paper_name="Pokec",
        description="Largest social-network stand-in",
        builder=_pokec,
        size_class="large",
    ),
]

DATASETS: Dict[str, DatasetSpec] = {spec.name: spec for spec in _SPECS}

_SIZE_CLASSES = ("small", "medium", "large")


def register_dataset(spec: DatasetSpec, replace: bool = False) -> DatasetSpec:
    """Add ``spec`` to the registry (used by the on-disk SNAP pipeline).

    Registered datasets behave exactly like the built-in stand-ins: they show
    up in :func:`dataset_names`, the CLI's ``datasets``/``solve --dataset``
    commands and the serving layer's ``{"dataset": name}`` requests.
    Re-registering an existing name raises unless ``replace=True`` (silently
    shadowing a dataset is how benchmark tables go subtly wrong); replacing
    also drops the memoised graph of the old spec.
    """
    if spec.size_class not in _SIZE_CLASSES:
        raise InvalidParameterError(
            f"unknown size_class {spec.size_class!r}; expected one of {_SIZE_CLASSES}"
        )
    existing = DATASETS.get(spec.name)
    if existing is not None:
        if not replace:
            raise InvalidParameterError(
                f"dataset {spec.name!r} is already registered"
            )
        _SPECS[_SPECS.index(existing)] = spec
        load_dataset.cache_clear()
        dataset_fingerprint.cache_clear()
    else:
        _SPECS.append(spec)
    DATASETS[spec.name] = spec
    return spec


def dataset_names(size_classes: Optional[Sequence[str]] = None) -> List[str]:
    """Names of the registered datasets, optionally filtered by size class."""
    if size_classes is None:
        return [spec.name for spec in _SPECS]
    return [spec.name for spec in _SPECS if spec.size_class in size_classes]


@lru_cache(maxsize=None)
def load_dataset(name: str) -> Graph:
    """Build (and memoise) the stand-in graph for ``name``."""
    try:
        spec = DATASETS[name]
    except KeyError as exc:
        raise InvalidParameterError(
            f"unknown dataset {name!r}; available: {', '.join(DATASETS)}"
        ) from exc
    return spec.builder()


@lru_cache(maxsize=None)
def dataset_fingerprint(name: str) -> str:
    """The content fingerprint of a registered dataset (memoised).

    Datasets are deterministic builders, so their fingerprint is a pure
    function of the name — callers that only need the session-cache /
    result-store key (e.g. process-executor coordination) can skip hashing
    the graph per request.  Cleared together with :func:`load_dataset`'s
    memo when a dataset is re-registered.
    """
    from repro.datasets.snap import graph_fingerprint

    return graph_fingerprint(load_dataset(name))


def dataset_statistics(name: str) -> Dict[str, object]:
    """The Table III statistics columns for one dataset."""
    graph = load_dataset(name)
    decomposition = truss_decomposition(graph)
    return {
        "dataset": DATASETS[name].paper_name,
        "vertices": graph.num_vertices,
        "edges": graph.num_edges,
        "k_max": decomposition.k_max,
        "sup_max": max_support(graph),
    }


def extract_ego_subgraph(
    graph: Graph, target_edges: int, seed: int | None = None
) -> Graph:
    """Extract a small subgraph for the Exact comparison (Exp-2 / Fig. 5).

    Following the methodology the paper borrows from Linghu et al. (SIGMOD
    2020), vertices are pulled in breadth-first order starting from a random
    seed vertex, together with their neighbours, until the induced subgraph
    reaches approximately ``target_edges`` edges.
    """
    if target_edges < 1:
        raise InvalidParameterError("target_edges must be positive")
    rng = make_rng(seed)
    vertices = sorted(graph.vertices(), key=repr)
    if not vertices:
        return Graph()
    start = rng.choice(vertices)
    selected_set = {start}
    frontier = [start]
    edge_count = 0
    while frontier and edge_count < target_edges:
        current = frontier.pop(0)
        for neighbour in sorted(graph.neighbors(current), key=repr):
            if neighbour in selected_set:
                continue
            # Adding one vertex at a time keeps the subgraph close to the
            # requested edge budget even inside dense communities.
            edge_count += sum(1 for w in graph.neighbors(neighbour) if w in selected_set)
            selected_set.add(neighbour)
            frontier.append(neighbour)
            if edge_count >= target_edges:
                break
    return graph.subgraph(selected_set)
