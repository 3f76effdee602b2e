"""Tests for the TrussState bundle (trussness, layers, order, anchors)."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.core.engine import SolverEngine
from repro.core.followers import compute_followers
from repro.graph.generators import complete_graph
from repro.graph.index import GraphIndex
from repro.graph.triangles import neighbor_edges
from repro.oracles import dense_peel_reference, truss_decomposition_reference
from repro.truss.decomposition import trussness_gain
from repro.truss.state import ANCHOR_TRUSSNESS, TrussState
from repro.utils.errors import InvalidEdgeError, InvalidParameterError

from tests.conftest import anchor_eid_sets, world_sweep_graphs


class TestBasicQueries:
    def test_trussness_and_layer(self, fig3_state):
        assert fig3_state.trussness((9, 10)) == 3
        assert fig3_state.layer((9, 10)) == 1
        assert fig3_state.trussness((1, 2)) == 4
        assert fig3_state.trussness((3, 4)) == 5
        assert fig3_state.k_max == 5

    def test_unknown_edge_raises(self, fig3_state):
        with pytest.raises(InvalidEdgeError):
            fig3_state.trussness((1, 99))

    def test_anchor_trussness_is_infinite(self, fig3_graph):
        state = TrussState.compute(fig3_graph, anchors=[(9, 10)])
        assert state.trussness((9, 10)) == ANCHOR_TRUSSNESS
        assert state.layer((9, 10)) == math.inf
        assert state.is_anchor((10, 9))

    def test_non_anchor_edges_excludes_anchors(self, fig3_graph):
        state = TrussState.compute(fig3_graph, anchors=[(9, 10)])
        edges = set(state.non_anchor_edges())
        assert (9, 10) not in edges
        assert len(edges) == fig3_graph.num_edges - 1


class TestDeletionOrder:
    def test_precedes_by_trussness(self, fig3_state):
        assert fig3_state.precedes((9, 10), (1, 2))  # trussness 3 < 4
        assert not fig3_state.precedes((1, 2), (9, 10))

    def test_precedes_by_layer_within_hull(self, fig3_state):
        assert fig3_state.precedes((9, 10), (8, 9))  # layer 1 <= 2
        assert not fig3_state.precedes((5, 8), (9, 10))  # layer 4 > 1

    def test_precedes_is_reflexive_on_same_layer(self, fig3_state):
        assert fig3_state.precedes((9, 10), (9, 10))

    def test_every_edge_precedes_an_anchor(self, fig3_graph):
        state = TrussState.compute(fig3_graph, anchors=[(3, 4)])
        assert state.precedes((9, 10), (3, 4))
        assert not state.precedes((3, 4), (9, 10))


class TestTriangleQueries:
    def test_triangles_of_edge(self, fig3_graph):
        apexes = {w for _e1, _e2, w in neighbor_edges(fig3_graph, (9, 10))}
        assert apexes == {8}

    def test_neighbor_edges(self, fig3_graph):
        found = set()
        for e1, e2, _w in neighbor_edges(fig3_graph, (9, 10)):
            found |= {e1, e2}
        assert found == {(8, 9), (8, 10)}


class TestAnchoringTransitions:
    def test_with_anchor_returns_new_state(self, fig3_state):
        anchored = fig3_state.with_anchor((9, 10))
        assert anchored is not fig3_state
        assert anchored.is_anchor((9, 10))
        assert not fig3_state.is_anchor((9, 10))

    def test_followers_relative_to(self, fig3_state):
        anchored = fig3_state.with_anchor((9, 10))
        assert anchored.followers_relative_to(fig3_state) == {(8, 9), (7, 8), (5, 8)}

    def test_gain_matches_follower_count(self, fig3_state):
        anchored = fig3_state.with_anchor((9, 10))
        assert anchored.trussness_gain_from(fig3_state) == 3

    def test_gain_excludes_anchored_edges(self, fig3_state):
        # anchoring a previously promoted edge removes it from the gain sum
        first = fig3_state.with_anchor((9, 10))
        second = first.with_anchor((8, 9))
        gain = second.trussness_gain_from(fig3_state)
        followers = second.followers_relative_to(fig3_state)
        assert (8, 9) not in followers
        assert len(followers) >= 2
        assert gain >= len(followers)


    def test_array_diffs_match_the_dict_walk(self):
        for name, graph in world_sweep_graphs():
            edge_of = GraphIndex.of(graph).edge_of
            for anchor_eids in anchor_eid_sets(graph.num_edges, seed=7):
                anchors = [edge_of[eid] for eid in anchor_eids]
                baselines = (TrussState.compute(graph), TrussState.compute(graph, anchors[:1]))
                for baseline in baselines:
                    anchored = baseline.with_anchors(anchors)
                    before = baseline.decomposition
                    after = anchored.decomposition
                    assert anchored.trussness_gain_from(baseline) == trussness_gain(
                        before, after
                    ), name
                    assert anchored.followers_relative_to(baseline) == {
                        edge
                        for edge, old in before.trussness.items()
                        if edge not in after.anchors and after.trussness[edge] > old
                    }, name

    def test_gain_from_a_more_anchored_baseline_raises(self, fig3_state):
        anchored = fig3_state.with_anchor((9, 10))
        with pytest.raises(InvalidParameterError, match="decreased"):
            fig3_state.trussness_gain_from(anchored)
        # followers_relative_to only reports increases; it does not raise
        assert fig3_state.followers_relative_to(anchored) == set()

    def test_states_of_different_graphs_do_not_compare(self, fig3_state):
        other = TrussState.compute(complete_graph(4))
        with pytest.raises(InvalidParameterError, match="different graphs"):
            other.trussness_gain_from(fig3_state)


def _tight_recount(graph, anchor_eids):
    """Tight flags recounted per edge from the oracle's trussness and layers,
    over triangles found by adjacency intersection."""
    index = GraphIndex.of(graph)
    eid_of = index.eid_of
    truss, layer, _k_max = dense_peel_reference(graph, anchor_eids)
    anchored = set(anchor_eids)

    def holds(other, eid):
        return other in anchored or truss[other] > truss[eid] or (
            truss[other] == truss[eid] and layer[other] >= layer[eid]
        )

    flags = []
    for eid, (u, v) in enumerate(index.edge_of):
        if eid in anchored:
            flags.append(0)
            continue
        count = 0
        for w in graph.neighbors(u) & graph.neighbors(v):
            a = eid_of[graph.require_edge((u, w))]
            b = eid_of[graph.require_edge((v, w))]
            count += holds(a, eid) and holds(b, eid)
        assert count <= truss[eid] - 2  # the peel's wave bound
        flags.append(int(count == truss[eid] - 2))
    return flags


class TestTightFlags:
    def test_flags_match_a_per_edge_recount(self):
        for name, graph in world_sweep_graphs():
            m = graph.num_edges
            edge_of = GraphIndex.of(graph).edge_of
            for anchor_eids in anchor_eid_sets(m, seed=m):
                state = TrussState.compute(graph, [edge_of[eid] for eid in anchor_eids])
                expected = _tight_recount(graph, anchor_eids)
                assert list(state.tight_flags()) == expected, (name, anchor_eids)

    def test_flags_are_computed_once_per_state(self, fig3_state):
        assert fig3_state.tight_flags() is fig3_state.tight_flags()


def _starter_recount(graph, anchor_eids):
    """Starter flags recounted per anchor candidate from the oracle's
    trussness and layers, over triangles found by adjacency intersection."""
    index = GraphIndex.of(graph)
    eid_of = index.eid_of
    truss, layer, _k_max = dense_peel_reference(graph, anchor_eids)
    anchored = set(anchor_eids)
    tight = _tight_recount(graph, anchor_eids)

    def after(e, x):
        return truss[e] > truss[x] or (truss[e] == truss[x] and layer[e] > layer[x])

    def holds(c, e):
        return c in anchored or truss[c] > truss[e] or (
            truss[c] == truss[e] and layer[c] >= layer[e]
        )

    flags = []
    for x, (u, v) in enumerate(index.edge_of):
        found = False
        if x not in anchored:
            for w in graph.neighbors(u) & graph.neighbors(v):
                a = eid_of[graph.require_edge((u, w))]
                b = eid_of[graph.require_edge((v, w))]
                for e, c in ((a, b), (b, a)):
                    if e not in anchored and tight[e] and after(e, x) and holds(c, e):
                        found = True
        flags.append(int(found))
    return flags


class TestStarterFlags:
    def test_flags_match_a_per_anchor_recount(self):
        for name, graph in world_sweep_graphs():
            m = graph.num_edges
            edge_of = GraphIndex.of(graph).edge_of
            for anchor_eids in anchor_eid_sets(m, seed=m):
                state = TrussState.compute(graph, [edge_of[eid] for eid in anchor_eids])
                expected = _starter_recount(graph, anchor_eids)
                assert list(state.starter_flags()) == expected, (name, anchor_eids)

    def test_an_edge_without_a_starter_has_no_follower(self):
        flagged = unflagged = 0
        for name, graph in world_sweep_graphs():
            m = graph.num_edges
            edge_of = GraphIndex.of(graph).edge_of
            for anchor_eids in list(anchor_eid_sets(m, seed=m))[:2]:
                state = TrussState.compute(graph, [edge_of[eid] for eid in anchor_eids])
                flags = state.starter_flags()
                mask = state.kernel_views()[3]
                for eid in range(m):
                    if mask[eid]:
                        assert not flags[eid], (name, eid)
                    elif flags[eid]:
                        flagged += 1
                    else:
                        unflagged += 1
                        followers = compute_followers(state, edge_of[eid], method="recompute")
                        assert followers == set(), (name, anchor_eids, edge_of[eid])
        assert flagged and unflagged

    def test_a_chained_state_flags_like_a_full_decomposition(self):
        for name, graph in world_sweep_graphs():
            m = graph.num_edges
            edge_of = GraphIndex.of(graph).edge_of
            schedule = [edge_of[eid] for eid in list(anchor_eid_sets(m, seed=m))[2:3][0]] if m else []
            engine = SolverEngine(graph, full_peel_threshold=math.inf)
            for i, edge in enumerate(schedule):
                engine.commit_anchor(edge)
                chained = engine.state
                full = TrussState.compute(graph, schedule[: i + 1])
                assert chained.starter_flags() == full.starter_flags(), (name, i)
                assert chained.tight_flags() == full.tight_flags(), (name, i)
            assert engine.stats["full_peels"] == 0, name

    def test_flags_are_computed_once_per_state(self, fig3_state):
        assert fig3_state.starter_flags() is fig3_state.starter_flags()


class TestArrayViews:
    def test_arrays_equal_the_list_views(self):
        for name, graph in world_sweep_graphs():
            m = graph.num_edges
            edge_of = GraphIndex.of(graph).edge_of
            for anchor_eids in anchor_eid_sets(m, seed=m):
                state = TrussState.compute(graph, [edge_of[eid] for eid in anchor_eids])
                _index, truss, layer, _mask = state.kernel_views()
                truss_arr, layer_arr = state.array_views()
                assert truss_arr.dtype == layer_arr.dtype == np.float64
                assert truss_arr.tolist() == truss and layer_arr.tolist() == layer, name
                # The lists keep Python ints (inf only at anchors): a float
                # would leak into per-round gains and canonical results.
                for values in (truss, layer):
                    assert all(
                        type(values[eid]) is int for eid in range(m) if eid not in anchor_eids
                    ), name
                    assert all(values[eid] == math.inf for eid in anchor_eids), name

    def test_arrays_are_read_only(self, fig3_state):
        for values in fig3_state.array_views():
            with pytest.raises(ValueError):
                values[0] = 0

    def test_a_hand_built_decomposition_converts_once(self, fig3_graph):
        oracle = truss_decomposition_reference(fig3_graph)
        state = TrussState(graph=fig3_graph, anchors=frozenset(), decomposition=oracle)
        truss_arr, layer_arr = state.array_views()
        assert state.array_views()[0] is truss_arr
        _index, truss, layer, _mask = state.kernel_views()
        assert truss_arr.tolist() == truss and layer_arr.tolist() == layer


class TestCliqueState:
    def test_clique_has_single_hull(self):
        state = TrussState.compute(complete_graph(6))
        assert state.k_max == 6
        assert all(state.trussness(edge) == 6 for edge in state.graph.edges())
        assert all(state.layer(edge) == 1 for edge in state.graph.edges())
