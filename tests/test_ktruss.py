"""Tests for k-truss extraction, k-hulls and k-truss components."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.datasets import dataset_statistics, load_dataset
from repro.graph.generators import complete_graph, erdos_renyi_graph
from repro.graph.graph import Graph
from repro.graph.triangles import support_map
from repro.truss.ktruss import (
    k_hull,
    k_truss,
    k_truss_components,
    max_support,
    max_trussness,
    trussness_histogram,
)
from repro.utils.errors import InvalidParameterError

from tests.conftest import random_test_graph, world_sweep_graphs


class TestKTruss:
    @pytest.mark.parametrize("k", [3, 4, 5])
    def test_matches_networkx(self, k):
        graph = random_test_graph(31, min_n=12, max_n=20)
        ours = k_truss(graph, k)
        reference = nx.k_truss(graph.to_networkx(), k)
        assert set(ours.edges()) == {
            (u, v) if u < v else (v, u) for u, v in reference.edges()
        }

    def test_every_edge_meets_support_requirement(self):
        graph = random_test_graph(32, min_n=14, max_n=20)
        truss = k_truss(graph, 3)
        from repro.graph.triangles import edge_support

        for edge in truss.edges():
            assert edge_support(truss, edge) >= 1

    def test_k_must_be_at_least_two(self, triangle_graph):
        with pytest.raises(InvalidParameterError):
            k_truss(triangle_graph, 1)

    def test_anchored_edges_belong_to_every_truss(self, fig3_graph):
        truss = k_truss(fig3_graph, 6, anchors=[(9, 10)])
        assert truss.has_edge(9, 10)

    def test_clique(self):
        graph = complete_graph(6)
        assert k_truss(graph, 6).num_edges == 15
        assert k_truss(graph, 7).num_edges == 0


class TestKHull:
    def test_hulls_partition_edges(self):
        graph = random_test_graph(33, min_n=12, max_n=18)
        total = 0
        for k in range(2, max_trussness(graph) + 1):
            total += len(k_hull(graph, k))
        assert total == graph.num_edges

    def test_figure3_hull_sizes(self, fig3_graph):
        assert len(k_hull(fig3_graph, 3)) == 4
        assert len(k_hull(fig3_graph, 4)) == 18
        assert len(k_hull(fig3_graph, 5)) == 10


class TestComponents:
    def test_figure3_four_truss_components(self, fig3_graph):
        components = k_truss_components(fig3_graph, 4)
        sizes = sorted(len(c) for c in components)
        # two "K5 minus an edge" blocks and the 5-clique; the 5-clique is
        # triangle-connected to neither block inside the 4-truss?  It is:
        # (5,6) shares triangles only through trussness-3 edges, which are
        # not in the 4-truss, so three separate components remain.
        assert sizes == [9, 9, 10]

    def test_components_cover_the_truss(self, fig3_graph):
        truss = k_truss(fig3_graph, 4)
        components = k_truss_components(fig3_graph, 4)
        assert sum(len(c) for c in components) == truss.num_edges


class TestStatistics:
    def test_max_support_of_clique(self):
        assert max_support(complete_graph(7)) == 5

    def test_max_support_of_empty_graph(self):
        assert max_support(Graph()) == 0

    def test_max_support_matches_the_pure_python_count(self):
        for name, graph in world_sweep_graphs():
            assert max_support(graph) == max(support_map(graph).values(), default=0), name
        expected = max(support_map(load_dataset("college")).values())
        assert max_support(load_dataset("college")) == expected
        assert dataset_statistics("college")["sup_max"] == expected

    def test_trussness_histogram_sums_to_edge_count(self):
        graph = random_test_graph(34, min_n=12, max_n=18)
        histogram = trussness_histogram(graph)
        assert sum(histogram.values()) == graph.num_edges

    def test_figure3_histogram(self, fig3_graph):
        assert trussness_histogram(fig3_graph) == {3: 4, 4: 18, 5: 10}
