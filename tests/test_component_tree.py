"""Tests for the truss component tree (Algorithm 4, Lemma 4)."""

from __future__ import annotations

import pytest

from repro.core.component_tree import TrussComponentTree
from repro.core.followers import followers_by_recompute
from repro.graph.generators import complete_graph
from repro.graph.triangles import triangle_connected_components
from repro.truss.ktruss import k_truss_components
from repro.truss.state import TrussState
from repro.utils.errors import InvalidEdgeError, InvalidParameterError

from tests.conftest import random_test_graph


def _edges(tree, node):
    """The member edges of ``node`` as edge tuples."""
    edge_of = tree.state.index.edge_of
    return {edge_of[eid] for eid in node.edge_ids}


class TestFigure4Tree:
    """The tree of Fig. 4 (built from the Fig. 3 graph)."""

    def test_node_count_and_levels(self, fig3_state):
        tree = TrussComponentTree.build(fig3_state)
        assert len(tree) == 4
        levels = sorted(node.k for node in tree.nodes.values())
        assert levels == [3, 4, 4, 5]

    def test_node_ids_are_smallest_edge_ids(self, fig3_state):
        tree = TrussComponentTree.build(fig3_state)
        # paper ids 1, 5, 14, 23 are 1-based; ours are the same edges 0-based
        assert sorted(tree.nodes) == [0, 4, 13, 22]

    def test_node_sizes(self, fig3_state):
        tree = TrussComponentTree.build(fig3_state)
        sizes = {node_id: len(node) for node_id, node in tree.nodes.items()}
        assert sizes == {0: 4, 4: 9, 13: 9, 22: 10}

    def test_parent_structure(self, fig3_state):
        tree = TrussComponentTree.build(fig3_state)
        root = tree.nodes[0]
        assert root.parent is None
        assert sorted(root.children) == [4, 13, 22]
        for child_id in (4, 13, 22):
            assert tree.nodes[child_id].parent == 0

    def test_sla_of_the_running_example(self, fig3_state):
        tree = TrussComponentTree.build(fig3_state)
        # paper: sla((v9,v10)) = {1, 14} and sla((v5,v8)) = {1, 5, 14, 23}
        assert tree.sla((9, 10)) == {0, 13}
        assert tree.sla((5, 8)) == {0, 4, 13, 22}

    def test_node_of(self, fig3_state):
        tree = TrussComponentTree.build(fig3_state)
        assert tree.node_of((9, 10)).node_id == 0
        assert tree.node_of((3, 4)).node_id == 22

    def test_subtree_edges_induce_a_truss_component(self, fig3_state):
        tree = TrussComponentTree.build(fig3_state)
        subtree = tree.subtree_edges(13)
        components = k_truss_components(fig3_state.graph, 4)
        assert subtree in components

    def test_depth(self, fig3_state):
        tree = TrussComponentTree.build(fig3_state)
        assert tree.depth() == 2


class TestStructuralInvariants:
    @pytest.mark.parametrize("seed", range(10))
    def test_every_edge_in_exactly_one_node(self, seed):
        graph = random_test_graph(seed + 400, min_n=10, max_n=18)
        if graph.num_edges == 0:
            pytest.skip("empty graph")
        state = TrussState.compute(graph)
        tree = TrussComponentTree.build(state)
        assigned = [edge for node in tree.nodes.values() for edge in _edges(tree, node)]
        assert len(assigned) == graph.num_edges
        assert set(assigned) == set(graph.edges())

    @pytest.mark.parametrize("seed", range(10))
    def test_node_trussness_matches_its_edges(self, seed):
        graph = random_test_graph(seed + 430, min_n=10, max_n=18)
        if graph.num_edges == 0:
            pytest.skip("empty graph")
        state = TrussState.compute(graph)
        tree = TrussComponentTree.build(state)
        for node in tree.nodes.values():
            members = _edges(tree, node)
            for edge in members:
                assert state.trussness(edge) == node.k
            assert node.node_id == min(graph.edge_id(e) for e in members)

    @pytest.mark.parametrize("seed", range(10))
    def test_parents_have_strictly_smaller_trussness(self, seed):
        graph = random_test_graph(seed + 460, min_n=10, max_n=18)
        if graph.num_edges == 0:
            pytest.skip("empty graph")
        state = TrussState.compute(graph)
        tree = TrussComponentTree.build(state)
        for node in tree.nodes.values():
            if node.parent is not None:
                assert tree.nodes[node.parent].k < node.k

    def test_node_edges_are_triangle_connected_within_subtree(self, clique_chain):
        state = TrussState.compute(clique_chain)
        tree = TrussComponentTree.build(state)
        for node_id in tree.nodes:
            subtree = tree.subtree_edges(node_id)
            components = triangle_connected_components(clique_chain, subtree)
            assert len(components) == 1

    def test_anchor_edges_are_not_in_any_node(self, fig3_graph):
        state = TrussState.compute(fig3_graph, anchors=[(9, 10)])
        tree = TrussComponentTree.build(state)
        assigned = {edge for node in tree.nodes.values() for edge in _edges(tree, node)}
        assert (9, 10) not in assigned
        assert len(assigned) == fig3_graph.num_edges - 1


class TestLemma4:
    @pytest.mark.parametrize("seed", range(12))
    def test_followers_live_in_sla_nodes(self, seed):
        graph = random_test_graph(seed + 480, min_n=10, max_n=18)
        if graph.num_edges == 0:
            pytest.skip("empty graph")
        state = TrussState.compute(graph)
        tree = TrussComponentTree.build(state)
        for edge in graph.edges():
            followers = followers_by_recompute(state, edge)
            if not followers:
                continue
            allowed = set()
            for node_id in tree.sla(edge):
                allowed |= _edges(tree, tree.nodes[node_id])
            assert followers <= allowed


class TestErrors:
    def test_unknown_node_id(self, fig3_state):
        tree = TrussComponentTree.build(fig3_state)
        with pytest.raises(InvalidParameterError):
            tree.subtree_node_ids(999)

    def test_node_of_unknown_edge(self, fig3_graph):
        """An edge of no node: one not in the graph, or an anchor."""
        tree = TrussComponentTree.build(TrussState.compute(fig3_graph, anchors=[(9, 10)]))
        for edge in [(1, 99), (9, 10)]:
            with pytest.raises(InvalidEdgeError):
                tree.node_of(edge)

    def test_clique_tree_is_single_node(self):
        state = TrussState.compute(complete_graph(6))
        tree = TrussComponentTree.build(state)
        assert len(tree) == 1
        only = next(iter(tree.nodes.values()))
        assert only.k == 6
        assert len(only) == 15
