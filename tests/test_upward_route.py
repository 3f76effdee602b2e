"""Tests for upward routes (Definitions 6-7, Lemma 2, Table IV statistics)."""

from __future__ import annotations

import pytest

from repro.core.engine import SolverEngine
from repro.core.followers import followers_by_recompute
from repro.core.upward_route import (
    has_upward_route,
    upward_route_edges,
    upward_route_size,
    upward_route_sizes,
    upward_route_statistics,
)
from repro.graph.generators import complete_graph
from repro.truss.state import TrussState

from tests.conftest import anchor_schedule, random_test_graph, world_sweep_graphs


class TestFigure3Routes:
    def test_route_from_v9_v10_covers_the_hull_chain(self, fig3_state):
        route = upward_route_edges(fig3_state, (9, 10))
        assert {(8, 9), (7, 8), (5, 8)} <= route
        assert (8, 10) in route  # condition (i) neighbour at trussness 4

    def test_example3_route_exists(self, fig3_state):
        """Example 3: R_(v9,v10) ⇝ (v5,v8) exists along the 3-hull chain."""
        assert has_upward_route(fig3_state, (9, 10), (5, 8))
        assert has_upward_route(fig3_state, (8, 9), (5, 8))

    def test_no_route_downwards(self, fig3_state):
        assert not has_upward_route(fig3_state, (5, 8), (9, 10))

    def test_no_route_across_trussness_levels(self, fig3_state):
        assert not has_upward_route(fig3_state, (9, 10), (8, 10))


class TestLemma2:
    """Every follower is reachable along the upward routes of the anchor."""

    @pytest.mark.parametrize("seed", range(15))
    def test_followers_are_on_upward_routes(self, seed):
        graph = random_test_graph(seed + 200, min_n=8, max_n=16)
        if graph.num_edges == 0:
            pytest.skip("empty random graph")
        state = TrussState.compute(graph)
        for edge in graph.edges():
            followers = followers_by_recompute(state, edge)
            if not followers:
                continue
            route = upward_route_edges(state, edge)
            assert followers <= route


class TestStatistics:
    def test_statistics_on_figure3(self, fig3_state):
        stats = upward_route_statistics(fig3_state)
        assert stats.minimum == 0
        assert stats.maximum >= 4
        assert stats.total == sum(stats.per_edge.values())
        assert stats.average == pytest.approx(stats.total / len(stats.per_edge))
        assert len(stats.per_edge) == fig3_state.graph.num_edges

    def test_statistics_subset(self, fig3_state):
        stats = upward_route_statistics(fig3_state, edges=[(9, 10), (3, 4)])
        assert set(stats.per_edge) == {(9, 10), (3, 4)}

    def test_empty_edge_list(self, fig3_state):
        stats = upward_route_statistics(fig3_state, edges=[])
        assert stats.total == 0
        assert stats.average == 0.0

    def test_clique_routes_are_empty(self):
        state = TrussState.compute(complete_graph(5))
        for edge in state.graph.edges():
            assert upward_route_size(state, edge) == 0


class TestOnePassSizes:
    """The one-pass sizes equal the per-anchor route walk on every edge."""

    @staticmethod
    def _assert_equal_to_walk(state):
        sizes = upward_route_sizes(state)
        eid_of = state.index.eid_of
        assert len(sizes) == state.graph.num_edges
        for edge in state.graph.edges():
            assert sizes[eid_of[edge]] == upward_route_size(state, edge), edge

    def test_world_sweep_graphs(self):
        for _name, graph in world_sweep_graphs():
            self._assert_equal_to_walk(TrussState.compute(graph))

    def test_world_sweep_graphs_with_an_anchored_baseline(self):
        for _name, graph in world_sweep_graphs():
            anchors = anchor_schedule(graph, 7, length=3)
            state = TrussState.compute(graph, anchors)
            self._assert_equal_to_walk(state)
            for edge in anchors:
                assert upward_route_sizes(state)[state.index.eid_of[edge]] == 0

    def test_figure3(self, fig3_state):
        self._assert_equal_to_walk(fig3_state)

    def test_engine_computes_them_once_per_session(self, fig3_graph):
        engine = SolverEngine(fig3_graph)
        sizes = engine.route_sizes()
        assert sizes == upward_route_sizes(engine.original_state)
        engine.solve("tur", 1, repetitions=2, seed=1)
        engine.solve("tur", 2, repetitions=2, seed=2)
        assert engine.route_sizes() is sizes
