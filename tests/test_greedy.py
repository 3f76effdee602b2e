"""Tests for the BASE / BASE+ greedy solvers and their equivalence with GAS."""

from __future__ import annotations

import pytest

from repro.core.engine import SolverEngine
from repro.core.followers import FollowerMethod
from repro.core.gas import gas
from repro.core.greedy import base_greedy, base_plus_greedy
from repro.datasets.registry import load_dataset
from repro.graph.generators import community_graph, overlapping_cliques_graph
from repro.oracles import base_greedy_reference
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError
from repro.world import WorldPoint, sample_points

from tests.conftest import random_test_graph


class TestFigure3Greedy:
    def test_first_anchor_is_the_hull_seed(self, fig3_graph):
        """On the running example the best single anchor is (v9, v10)."""
        result = base_plus_greedy(fig3_graph, 1)
        assert result.anchors == [(9, 10)]
        assert result.gain == 3

    def test_base_and_base_plus_agree(self, fig3_graph):
        assert base_greedy(fig3_graph, 2).anchors == base_plus_greedy(fig3_graph, 2).anchors


class TestValidation:
    def test_negative_budget(self, fig3_graph):
        with pytest.raises(InvalidParameterError):
            base_plus_greedy(fig3_graph, -1)
        with pytest.raises(InvalidParameterError):
            base_greedy(fig3_graph, -1)

    def test_budget_above_edge_count(self, triangle_graph):
        with pytest.raises(InvalidParameterError):
            base_plus_greedy(triangle_graph, 10)

    def test_zero_budget(self, fig3_graph):
        result = base_plus_greedy(fig3_graph, 0)
        assert result.anchors == []
        assert result.gain == 0


class TestResultBookkeeping:
    def test_per_round_gain_has_budget_entries(self, fig3_graph):
        result = base_plus_greedy(fig3_graph, 3)
        assert len(result.per_round_gain) == 3
        assert len(result.extra["cumulative_seconds_per_round"]) == 3
        assert result.extra["follower_method"] == "support-check"

    def test_initial_anchors_are_respected(self, fig3_graph):
        result = base_plus_greedy(fig3_graph, 1, initial_anchors=[(9, 10)])
        assert result.anchors[0] == (9, 10)
        assert len(result.anchors) == 2

    def test_cumulative_times_are_monotone(self, two_communities):
        result = base_plus_greedy(two_communities, 3)
        times = result.extra["cumulative_seconds_per_round"]
        assert times == sorted(times)


class TestSolverEquivalence:
    """BASE, BASE+ and GAS must select identical anchors and gain."""

    @pytest.mark.parametrize("seed", range(6))
    def test_equivalence_on_random_graphs(self, seed):
        graph = random_test_graph(seed + 700, min_n=10, max_n=16)
        if graph.num_edges < 6:
            pytest.skip("graph too small")
        budget = 3
        reference = base_greedy(graph, budget)
        plus = base_plus_greedy(graph, budget)
        fast = gas(graph, budget)
        assert plus.anchors == reference.anchors
        assert fast.anchors == reference.anchors
        assert plus.gain == reference.gain == fast.gain

    def test_equivalence_on_structured_graphs(self):
        for graph in (
            community_graph([12, 10], p_in=0.7, p_out=0.05, seed=91),
            overlapping_cliques_graph(4, 6, 2, noise_edges=6, seed=92),
        ):
            budget = 4
            plus = base_plus_greedy(graph, budget)
            fast = gas(graph, budget)
            assert plus.anchors == fast.anchors
            assert plus.gain == fast.gain

    def test_peel_method_gives_same_anchors(self, two_communities):
        a = base_plus_greedy(two_communities, 3, method=FollowerMethod.PEEL)
        b = base_plus_greedy(two_communities, 3, method=FollowerMethod.SUPPORT_CHECK)
        assert a.anchors == b.anchors
        assert a.gain == b.gain


class TestCandidatePoolNarrowing:
    """BASE's reuse-narrowed candidate pool vs the full-scan reference twin."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_identical_anchors_and_gains_on_random_graphs(self, seed):
        graph = random_test_graph(seed, min_n=14, max_n=22)
        reuse = base_greedy(graph, 4)
        scan = base_greedy(graph, 4, candidate_pool="scan")
        assert reuse.anchors == scan.anchors
        assert reuse.gain == scan.gain
        assert reuse.per_round_gain == scan.per_round_gain
        assert reuse.followers == scan.followers

    def test_identical_on_structured_graphs(self):
        for graph in (
            community_graph([12, 10], p_in=0.7, p_out=0.05, seed=5),
            overlapping_cliques_graph(4, 6, 2, noise_edges=8, seed=6),
        ):
            reuse = base_greedy(graph, 3)
            scan = base_greedy(graph, 3, candidate_pool="scan")
            assert reuse.anchors == scan.anchors
            assert reuse.per_round_gain == scan.per_round_gain

    def test_narrowing_skips_clean_candidates(self):
        # A graph whose commits stay on the incremental path (the dirty
        # closure is small), so the narrowed pool actually engages; on dense
        # graphs the full-peel fallback degrades to the full scan, which the
        # equivalence tests above cover.
        graph = community_graph([14, 12, 10], p_in=0.6, p_out=0.05, seed=1)
        reuse = base_greedy(graph, 4)
        scan = base_greedy(graph, 4, candidate_pool="scan")
        evals = lambda result: (
            result.extra["engine"]["incremental_gain_evals"]
            + result.extra["engine"]["full_gain_evals"]
        )
        assert evals(reuse) < evals(scan)

    def test_agrees_with_gas_and_base_plus(self):
        graph = community_graph([12, 10], p_in=0.6, p_out=0.05, seed=8)
        assert (
            base_greedy(graph, 3).anchors
            == base_plus_greedy(graph, 3).anchors
            == gas(graph, 3).anchors
        )

    def test_unknown_pool_rejected(self, two_communities):
        with pytest.raises(InvalidParameterError):
            base_greedy(two_communities, 2, candidate_pool="psychic")


class TestStarterScreen:
    """BASE scores a candidate without a starter flag 0 without its re-peel
    (it has no follower) and counts the evaluation as the re-peel would."""

    @pytest.mark.parametrize(
        "spec", [point.spec() for point in sample_points(6, seed=3)] + ["college"]
    )
    def test_anchors_and_counters_unchanged(self, spec, monkeypatch):
        graph = (
            load_dataset(spec) if spec == "college" else WorldPoint.from_spec(spec).build_graph()
        )
        budget = min(2, graph.num_edges)
        screened = SolverEngine(graph).solve("base", budget)
        reference = base_greedy_reference(graph, budget)
        assert screened.anchors == reference.anchors, spec
        assert screened.gain == reference.gain, spec
        # Every candidate flagged: each one runs its re-peel.
        monkeypatch.setattr(
            TrussState,
            "starter_flags",
            lambda state: bytearray(b"\x01") * state.index.num_edges,
        )
        unscreened = SolverEngine(graph).solve("base", budget)
        assert unscreened.anchors == screened.anchors, spec
        assert unscreened.per_round_gain == screened.per_round_gain, spec
        assert unscreened.extra["engine"] == screened.extra["engine"], spec

    @pytest.mark.parametrize("spec", [point.spec() for point in sample_points(6, seed=3)])
    def test_full_peel_path_counts_the_same(self, spec, monkeypatch):
        graph = WorldPoint.from_spec(spec).build_graph()
        budget = min(2, graph.num_edges)
        screened = SolverEngine(graph, full_peel_threshold=0.0).solve("base", budget)
        monkeypatch.setattr(
            TrussState,
            "starter_flags",
            lambda state: bytearray(b"\x01") * state.index.num_edges,
        )
        unscreened = SolverEngine(graph, full_peel_threshold=0.0).solve("base", budget)
        assert unscreened.anchors == screened.anchors, spec
        assert unscreened.extra["engine"] == screened.extra["engine"], spec

    def test_the_screen_engages(self):
        graph = load_dataset("college")
        flags = SolverEngine(graph).original_state.starter_flags()
        assert 0 < sum(flags) < len(flags)
