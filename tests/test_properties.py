"""Property-based tests (hypothesis) for the core invariants."""

from __future__ import annotations

import networkx as nx
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.component_tree import TrussComponentTree
from repro.core.followers import (
    followers_by_recompute,
    followers_candidate_peel,
    followers_support_check,
)
from repro.core.upward_route import upward_route_edges
from repro.graph.graph import Graph, normalize_edge
from repro.truss.decomposition import truss_decomposition
from repro.truss.state import TrussState

# ---------------------------------------------------------------------------
# Graph strategy: a small simple graph described by an explicit edge list.
# ---------------------------------------------------------------------------
vertex = st.integers(min_value=0, max_value=13)
edge = st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]).map(lambda e: normalize_edge(*e))
edge_lists = st.lists(edge, min_size=1, max_size=45, unique=True)

relaxed = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def build_graph(edges) -> Graph:
    return Graph.from_edges(edges)


class TestDecompositionProperties:
    @relaxed
    @given(edge_lists)
    def test_trussness_matches_networkx_k_truss_membership(self, edges):
        graph = build_graph(edges)
        decomposition = truss_decomposition(graph)
        nx_graph = nx.Graph()
        nx_graph.add_edges_from(graph.edges())
        k_max = decomposition.k_max
        for k in range(3, k_max + 1):
            truss_edges = {
                normalize_edge(u, v) for u, v in nx.k_truss(nx_graph, k).edges()
            }
            ours = {e for e, t in decomposition.trussness.items() if t >= k}
            assert ours == truss_edges

    @relaxed
    @given(edge_lists)
    def test_trussness_lower_bound_is_two(self, edges):
        graph = build_graph(edges)
        decomposition = truss_decomposition(graph)
        assert all(value >= 2 for value in decomposition.trussness.values())
        assert set(decomposition.trussness) == set(graph.edges())

    @relaxed
    @given(edge_lists)
    def test_layers_are_positive_and_partition_hulls(self, edges):
        graph = build_graph(edges)
        decomposition = truss_decomposition(graph)
        for edge_, layer in decomposition.layer.items():
            assert layer >= 1
            assert edge_ in decomposition.trussness

    @relaxed
    @given(edge_lists, st.integers(min_value=0, max_value=100))
    def test_anchoring_never_decreases_trussness(self, edges, pick):
        graph = build_graph(edges)
        if graph.num_edges == 0:
            return
        anchor = graph.edge_list()[pick % graph.num_edges]
        base = truss_decomposition(graph)
        anchored = truss_decomposition(graph, anchors=[anchor])
        for edge_, value in anchored.trussness.items():
            assert value >= base.trussness[edge_]
            assert value - base.trussness[edge_] <= 1  # Lemma 1


class TestFollowerProperties:
    @relaxed
    @given(edge_lists, st.integers(min_value=0, max_value=100))
    def test_all_follower_methods_agree(self, edges, pick):
        graph = build_graph(edges)
        if graph.num_edges == 0:
            return
        anchor = graph.edge_list()[pick % graph.num_edges]
        state = TrussState.compute(graph)
        reference = followers_by_recompute(state, anchor)
        assert followers_candidate_peel(state, anchor) == reference
        assert followers_support_check(state, anchor) == reference

    @relaxed
    @given(edge_lists, st.integers(min_value=0, max_value=100))
    def test_followers_lie_on_upward_routes(self, edges, pick):
        graph = build_graph(edges)
        if graph.num_edges == 0:
            return
        anchor = graph.edge_list()[pick % graph.num_edges]
        state = TrussState.compute(graph)
        followers = followers_by_recompute(state, anchor)
        assert followers <= upward_route_edges(state, anchor)

    @relaxed
    @given(edge_lists, st.integers(min_value=0, max_value=100))
    def test_anchor_is_never_its_own_follower(self, edges, pick):
        graph = build_graph(edges)
        if graph.num_edges == 0:
            return
        anchor = graph.edge_list()[pick % graph.num_edges]
        state = TrussState.compute(graph)
        assert anchor not in followers_support_check(state, anchor)


class TestTreeProperties:
    @relaxed
    @given(edge_lists)
    def test_tree_partitions_the_edges(self, edges):
        graph = build_graph(edges)
        state = TrussState.compute(graph)
        tree = TrussComponentTree.build(state)
        edge_of = state.index.edge_of
        assigned = [edge_of[e] for node in tree.nodes.values() for e in node.edge_ids]
        assert len(assigned) == graph.num_edges
        assert set(assigned) == set(graph.edges())

    @relaxed
    @given(edge_lists)
    def test_children_have_larger_trussness_than_parents(self, edges):
        graph = build_graph(edges)
        state = TrussState.compute(graph)
        tree = TrussComponentTree.build(state)
        edge_of = state.index.edge_of
        for node in tree.nodes.values():
            if node.parent is not None:
                assert tree.nodes[node.parent].k < node.k
            assert all(state.trussness(edge_of[e]) == node.k for e in node.edge_ids)
