"""Graph substrate: data structure, triangles, generators, I/O and sampling.

The ATR algorithms operate on simple undirected graphs.  The substrate is a
small, dependency-free adjacency-set implementation with stable integer edge
identifiers (the truss component tree of the paper identifies tree nodes by
the smallest edge id they contain, so edge ids are a first-class concept
here rather than an afterthought).
"""

from repro.graph.graph import Edge, Graph, normalize_edge
from repro.graph.index import GraphIndex
from repro.graph.triangles import (
    common_neighbors,
    edge_support,
    neighbor_edges,
    support_map,
    triangle_connected_components,
    triangles_of_edge,
    triangles_of_graph,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    community_graph,
    complete_graph,
    erdos_renyi_graph,
    grid_with_shortcuts,
    overlapping_cliques_graph,
    paper_figure1_graph,
    paper_figure3_graph,
    powerlaw_cluster_graph,
    skewed_block_sizes,
    stochastic_block_model,
    watts_strogatz_graph,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.sampling import sample_edges, sample_vertices

__all__ = [
    "Edge",
    "Graph",
    "GraphIndex",
    "normalize_edge",
    "common_neighbors",
    "edge_support",
    "neighbor_edges",
    "support_map",
    "triangles_of_edge",
    "triangles_of_graph",
    "triangle_connected_components",
    "erdos_renyi_graph",
    "barabasi_albert_graph",
    "watts_strogatz_graph",
    "powerlaw_cluster_graph",
    "complete_graph",
    "community_graph",
    "stochastic_block_model",
    "skewed_block_sizes",
    "overlapping_cliques_graph",
    "grid_with_shortcuts",
    "paper_figure1_graph",
    "paper_figure3_graph",
    "read_edge_list",
    "write_edge_list",
    "sample_edges",
    "sample_vertices",
]
