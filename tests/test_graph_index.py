"""Equivalence tests for the integer-indexed kernel (repro.graph.index).

Every hot path that runs on :class:`GraphIndex` is checked against the
from-scratch oracle of its invariant (:mod:`repro.oracles`, or the
recompute-and-diff follower set).  These tests assert, on the paper's
worked examples and on random graphs (including anchored states), that the
kernel and the oracles agree bit-for-bit:

* index structure: supports, triangle lists, CSR adjacency;
* truss decomposition (trussness, layers, k_max);
* triangle connectivity (union-find over precomputed triples);
* follower sets (support-check and peel vs recompute);
* component tree shape, sla sets and the reuse decision.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.component_tree import TrussComponentTree
from repro.core.followers import (
    compute_followers,
    followers_by_recompute,
    followers_candidate_peel,
    followers_support_check,
)
from repro.core.gas import gas
from repro.core.greedy import base_plus_greedy
from repro.core.reuse import compute_reuse_decision
from repro.graph.generators import (
    erdos_renyi_graph,
    paper_figure1_graph,
    paper_figure3_graph,
    powerlaw_cluster_graph,
)
from repro.graph.graph import Graph
from repro.graph.index import GraphIndex
from repro.graph.triangles import (
    support_map,
    triangle_connected_components,
    triangles_of_graph,
)
from repro.oracles import (
    component_tree_reference,
    compute_reuse_decision_reference,
    triangle_connected_components_reference,
    truss_decomposition_reference,
)
from repro.truss.decomposition import truss_decomposition
from repro.truss.peel import peel_trussness_fast
from repro.truss.state import TrussState

from tests.conftest import graph_seeds, random_test_graph


def _sample_anchors(graph: Graph, seed: int, count: int = 3) -> list:
    edges = graph.edge_list()
    if not edges:
        return []
    rng = random.Random(seed)
    return rng.sample(edges, min(count, len(edges)))


def _assert_same_decomposition(graph: Graph, anchors=()) -> None:
    kernel = truss_decomposition(graph, anchors)
    reference = truss_decomposition_reference(graph, anchors)
    assert kernel.trussness == reference.trussness
    assert kernel.layer == reference.layer
    assert kernel.anchors == reference.anchors
    assert kernel.k_max == reference.k_max


def _canonical(groups) -> list:
    return sorted(tuple(sorted(group)) for group in groups)


class TestIndexStructure:
    def test_supports_match_support_map(self, fig3_graph):
        index = GraphIndex.of(fig3_graph)
        supports = support_map(fig3_graph)
        for edge, value in supports.items():
            assert index.edge_support(edge) == value

    def test_triangle_lists_match_triangle_enumeration(self, fig3_graph):
        index = GraphIndex.of(fig3_graph)
        expected = set()
        for u, v, w in triangles_of_graph(fig3_graph):
            expected.add(frozenset([(u, v), (u, w), (v, w)]))
        seen = set()
        for e1, e2, e3 in index.triangles:
            seen.add(frozenset([index.edge_of[e1], index.edge_of[e2], index.edge_of[e3]]))
        assert seen == expected
        # each edge's per-edge list has one entry per incident triangle
        for edge, value in support_map(fig3_graph).items():
            assert len(index.edge_triangles[index.eid_of[edge]]) == value

    def test_csr_adjacency_matches_graph(self, fig3_graph):
        index = GraphIndex.of(fig3_graph)
        for vid, vertex in enumerate(index.vertex_of):
            neighbour_vids, incident_eids = index.neighbors_csr(vid)
            neighbours = {index.vertex_of[w] for w in neighbour_vids}
            assert neighbours == set(fig3_graph.neighbors(vertex))
            assert list(neighbour_vids) == sorted(neighbour_vids)
            for w, eid in zip(neighbour_vids, incident_eids):
                assert index.edge_of[eid] == fig3_graph.require_edge(
                    (vertex, index.vertex_of[w])
                )

    def test_dense_ids_follow_public_edge_ids(self, fig3_graph):
        index = GraphIndex.of(fig3_graph)
        assert index.stable_ids == sorted(index.stable_ids)
        for eid, edge in enumerate(index.edge_of):
            assert fig3_graph.edge_id(edge) == index.stable_ids[eid]

    def test_cache_invalidation_on_mutation(self):
        graph = Graph.from_edges([(1, 2), (2, 3), (1, 3)])
        first = GraphIndex.of(graph)
        assert GraphIndex.of(graph) is first
        graph.add_edge(3, 4)
        second = GraphIndex.of(graph)
        assert second is not first
        assert second.num_edges == 4

    @given(seed=graph_seeds)
    @settings(max_examples=40, deadline=None)
    def test_support_matches_on_random_graphs(self, seed):
        graph = random_test_graph(seed)
        index = GraphIndex.of(graph)
        for edge, value in support_map(graph).items():
            assert index.support[index.eid_of[edge]] == value


class TestDecompositionEquivalence:
    def test_fig3(self, fig3_graph):
        _assert_same_decomposition(fig3_graph)

    def test_fig1(self, fig1_graph):
        _assert_same_decomposition(fig1_graph)
        _assert_same_decomposition(fig1_graph, [(3, 8), (5, 6)])

    def test_empty_and_triangle_free(self):
        _assert_same_decomposition(Graph())
        _assert_same_decomposition(Graph.from_edges([(1, 2), (2, 3), (3, 4)]))

    @given(seed=graph_seeds)
    @settings(max_examples=60, deadline=None)
    def test_random_graphs(self, seed):
        graph = random_test_graph(seed)
        _assert_same_decomposition(graph)

    @given(seed=graph_seeds)
    @settings(max_examples=60, deadline=None)
    def test_random_graphs_with_anchors(self, seed):
        graph = random_test_graph(seed)
        _assert_same_decomposition(graph, _sample_anchors(graph, seed))

    def test_peel_kernel_direct(self, fig3_graph):
        index = GraphIndex.of(fig3_graph)
        trussness, layer, k_max = peel_trussness_fast(index)
        reference = truss_decomposition_reference(fig3_graph)
        for edge, value in reference.trussness.items():
            eid = index.eid_of[edge]
            assert trussness[eid] == value
            assert layer[eid] == reference.layer[edge]
        assert k_max == reference.k_max


class TestTriangleConnectivity:
    @given(seed=graph_seeds)
    @settings(max_examples=40, deadline=None)
    def test_whole_graph(self, seed):
        graph = random_test_graph(seed)
        assert _canonical(triangle_connected_components(graph)) == _canonical(
            triangle_connected_components_reference(graph)
        )

    @given(seed=graph_seeds)
    @settings(max_examples=40, deadline=None)
    def test_edge_subsets(self, seed):
        graph = random_test_graph(seed)
        edges = graph.edge_list()
        rng = random.Random(seed)
        subset = rng.sample(edges, len(edges) // 2) if len(edges) >= 2 else edges
        assert _canonical(triangle_connected_components(graph, subset)) == _canonical(
            triangle_connected_components_reference(graph, subset)
        )


class TestFollowerEquivalence:
    def test_fig3_worked_example(self, fig3_state):
        expected = {(8, 9), (7, 8), (5, 8)}
        assert followers_support_check(fig3_state, (9, 10)) == expected
        assert followers_candidate_peel(fig3_state, (9, 10)) == expected
        assert followers_by_recompute(fig3_state, (9, 10)) == expected

    @given(seed=graph_seeds)
    @settings(max_examples=25, deadline=None)
    def test_all_methods_agree_on_random_graphs(self, seed):
        graph = random_test_graph(seed)
        state = TrussState.compute(graph)
        rng = random.Random(seed)
        edges = graph.edge_list()
        for anchor in rng.sample(edges, min(6, len(edges))):
            truth = compute_followers(state, anchor, method="recompute")
            assert followers_support_check(state, anchor) == truth
            assert followers_candidate_peel(state, anchor) == truth

    @given(seed=graph_seeds)
    @settings(max_examples=25, deadline=None)
    def test_anchored_states(self, seed):
        graph = random_test_graph(seed)
        anchors = _sample_anchors(graph, seed, count=2)
        if not anchors:
            return
        state = TrussState.compute(graph, anchors)
        candidates = [e for e in state.non_anchor_edges()][:6]
        for anchor in candidates:
            truth = compute_followers(state, anchor, method="recompute")
            assert followers_support_check(state, anchor) == truth

    def test_candidate_nodes_matches_tuple_filter(self, fig3_state):
        tree = TrussComponentTree.build(fig3_state)
        truth = followers_by_recompute(fig3_state, (9, 10))
        for node in tree.nodes.values():
            for method in (followers_support_check, followers_candidate_peel):
                tuple_result = method(
                    fig3_state, (9, 10), candidate_filter=set(node.edges)
                )
                node_result = method(
                    fig3_state,
                    (9, 10),
                    candidate_nodes=(tree.node_of_eid, {node.node_id}),
                )
                assert tuple_result == node_result
                assert tuple_result == truth & node.edges


def _tree_shape(tree: TrussComponentTree):
    return (
        {
            node_id: (node.k, node.edges, node.parent, frozenset(node.children))
            for node_id, node in tree.nodes.items()
        },
        frozenset(tree.roots),
        dict(tree.node_of_edge),
    )


class TestComponentTreeEquivalence:
    def test_fig3_tree(self, fig3_state):
        kernel = TrussComponentTree.build(fig3_state)
        reference = component_tree_reference(fig3_state)
        assert _tree_shape(kernel) == _tree_shape(reference)
        for edge in fig3_state.non_anchor_edges():
            assert kernel.sla(edge) == reference.sla(edge)

    @given(seed=graph_seeds)
    @settings(max_examples=25, deadline=None)
    def test_random_trees_and_sla(self, seed):
        graph = random_test_graph(seed)
        state = TrussState.compute(graph)
        kernel = TrussComponentTree.build(state)
        reference = component_tree_reference(state)
        assert _tree_shape(kernel) == _tree_shape(reference)
        for edge in state.non_anchor_edges():
            assert kernel.sla(edge) == reference.sla(edge)

    @given(seed=graph_seeds)
    @settings(max_examples=20, deadline=None)
    def test_random_trees_anchored(self, seed):
        graph = random_test_graph(seed)
        anchors = _sample_anchors(graph, seed, count=2)
        if not anchors:
            return
        state = TrussState.compute(graph, anchors)
        kernel = TrussComponentTree.build(state)
        reference = component_tree_reference(state)
        assert _tree_shape(kernel) == _tree_shape(reference)
        for edge in state.non_anchor_edges():
            assert kernel.sla(edge) == reference.sla(edge)


class TestReuseDecisionEquivalence:
    @given(seed=graph_seeds)
    @settings(max_examples=20, deadline=None)
    def test_fast_path_matches_reference(self, seed):
        graph = random_test_graph(seed)
        state = TrussState.compute(graph)
        edges = list(state.non_anchor_edges())
        if not edges:
            return
        anchor = random.Random(seed).choice(edges)
        followers = compute_followers(state, anchor, method="recompute")
        new_state = state.with_anchor(anchor)
        fast = compute_reuse_decision(
            TrussComponentTree.build(state),
            TrussComponentTree.build(new_state),
            anchor,
            followers,
        )
        reference = compute_reuse_decision_reference(
            component_tree_reference(state),
            component_tree_reference(new_state),
            anchor,
            followers,
        )
        assert fast.invalid_edges == reference.invalid_edges
        assert fast.invalid_node_ids == reference.invalid_node_ids


class TestSolverEquivalence:
    @pytest.mark.parametrize("seed", [1, 5, 9])
    def test_gas_matches_base_plus_on_kernel(self, seed):
        graph = powerlaw_cluster_graph(16, 3, 0.6, seed=seed)
        gas_result = gas(graph, 2)
        base_plus = base_plus_greedy(graph, 2)
        assert gas_result.anchors == base_plus.anchors
        assert gas_result.per_round_gain == base_plus.per_round_gain

    def test_dense_graph_smoke(self):
        graph = erdos_renyi_graph(16, 0.5, seed=7)
        _assert_same_decomposition(graph)
        _assert_same_decomposition(graph, _sample_anchors(graph, 7))

    def test_paper_examples_still_hold(self):
        graph = paper_figure3_graph()
        _assert_same_decomposition(graph)
        graph = paper_figure1_graph()
        _assert_same_decomposition(graph, [(3, 8)])
