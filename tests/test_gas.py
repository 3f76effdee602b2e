"""Tests for the GAS algorithm (Algorithm 6)."""

from __future__ import annotations

import pytest

from repro.core.followers import FollowerMethod
from repro.core.gas import gas
from repro.core.greedy import base_plus_greedy
from repro.graph.generators import community_graph, paper_figure1_graph
from repro.utils.errors import InvalidParameterError

from tests.conftest import random_test_graph


class TestFigure3:
    def test_single_anchor(self, fig3_graph):
        result = gas(fig3_graph, 1)
        assert result.anchors == [(9, 10)]
        assert result.gain == 3
        assert result.followers == {(8, 9), (7, 8), (5, 8)}
        assert result.gain_by_trussness == {3: 3}

    def test_budget_two_keeps_improving(self, fig3_graph):
        one = gas(fig3_graph, 1)
        two = gas(fig3_graph, 2)
        assert two.gain >= one.gain
        assert two.anchors[0] == one.anchors[0]


class TestValidation:
    def test_negative_budget(self, fig3_graph):
        with pytest.raises(InvalidParameterError):
            gas(fig3_graph, -2)

    def test_budget_above_edges(self, triangle_graph):
        with pytest.raises(InvalidParameterError):
            gas(triangle_graph, 5)

    def test_recompute_method_is_rejected(self, fig3_graph):
        with pytest.raises(InvalidParameterError):
            gas(fig3_graph, 1, method=FollowerMethod.RECOMPUTE)

    def test_zero_budget(self, fig3_graph):
        result = gas(fig3_graph, 0)
        assert result.anchors == []
        assert result.gain == 0


class TestEquivalenceWithBasePlus:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_graphs(self, seed):
        graph = random_test_graph(seed + 800, min_n=10, max_n=18)
        if graph.num_edges < 6:
            pytest.skip("graph too small")
        budget = 4
        fast = gas(graph, budget)
        reference = base_plus_greedy(graph, budget)
        assert fast.anchors == reference.anchors
        assert fast.gain == reference.gain

    def test_non_submodular_example(self):
        graph = paper_figure1_graph()
        budget = 2
        fast = gas(graph, budget)
        reference = base_plus_greedy(graph, budget)
        assert fast.anchors == reference.anchors
        assert fast.gain == reference.gain

    def test_peel_variant_matches(self, two_communities):
        a = gas(two_communities, 3, method=FollowerMethod.PEEL)
        b = gas(two_communities, 3, method=FollowerMethod.SUPPORT_CHECK)
        assert a.anchors == b.anchors
        assert a.gain == b.gain


class TestDiagnostics:
    def test_reuse_stats_are_collected(self, two_communities):
        result = gas(two_communities, 3)
        stats = result.extra["reuse_stats"]
        assert len(stats) == 2  # recorded from the second round onwards
        for entry in stats:
            assert set(entry) == {"FR", "PR", "NR"}
            assert sum(entry.values()) == pytest.approx(1.0)

    def test_recompute_counts_shrink_after_first_round(self, two_communities):
        result = gas(two_communities, 3)
        counts = result.extra["recomputed_entries_per_round"]
        assert len(counts) == 3
        # the first round computes everything; later rounds reuse most entries
        assert counts[1] <= counts[0]
        assert counts[2] <= counts[0]

    def test_anchors_are_never_reselected(self, two_communities):
        result = gas(two_communities, 4)
        assert len(result.anchors) == len(set(result.anchors)) == 4

    def test_cumulative_times_match_budget(self, two_communities):
        result = gas(two_communities, 3)
        assert len(result.extra["cumulative_seconds_per_round"]) == 3
