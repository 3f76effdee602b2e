"""Tests for the GAS algorithm (Algorithm 6)."""

from __future__ import annotations

import json
import math

import pytest

from repro.api import canonical_result, result_to_json
from repro.core.engine import DEFAULT_FULL_PEEL_THRESHOLD, SolverEngine
from repro.core.followers import FollowerMethod
from repro.core.gas import gas
from repro.core.greedy import base_plus_greedy
from repro.graph.generators import community_graph, paper_figure1_graph
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError

from tests.conftest import anchor_schedule, random_test_graph


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


def _canonical(result) -> str:
    return json.dumps(canonical_result(result_to_json(result)), sort_keys=True)


def _replay_graph():
    return community_graph([14, 12, 10], p_in=0.6, p_out=0.05, seed=21)


class TestTrajectoryReplay:
    """A warm session answers unanchored GAS budgets it has already covered
    by replaying its recorded rounds: canonically byte-identical to a fresh
    engine, with no round run and no work counted."""

    LONGEST = 6

    @staticmethod
    def _assert_replayed(engine, result, budget):
        assert result.extra["recomputed_entries_per_round"] == [0] * budget
        assert len(result.extra["cumulative_seconds_per_round"]) == budget
        assert all(count == 0 for count in engine.stats.values())

    @pytest.mark.parametrize(
        "threshold", [0.0, DEFAULT_FULL_PEEL_THRESHOLD, math.inf], ids=["0", "default", "inf"]
    )
    @pytest.mark.parametrize("candidates", ["heap", "scan"])
    @pytest.mark.parametrize("method", ["support-check", "peel"])
    def test_every_covered_budget_equals_a_fresh_engine(self, method, candidates, threshold):
        graph = _replay_graph()
        params = {"method": method, "candidates": candidates}
        engine = SolverEngine(graph, full_peel_threshold=threshold)
        longest = engine.solve("gas", self.LONGEST, **params)
        assert any(longest.extra["recomputed_entries_per_round"])
        for budget in range(1, self.LONGEST + 1):
            replay = engine.solve("gas", budget, **params)
            fresh = SolverEngine(graph, full_peel_threshold=threshold).solve(
                "gas", budget, **params
            )
            assert _canonical(replay) == _canonical(fresh), budget
            self._assert_replayed(engine, replay, budget)

    def test_anchored_baseline_state(self):
        graph = _replay_graph()
        baseline = TrussState.compute(graph, anchor_schedule(graph, 5, length=2))
        engine = SolverEngine(graph, baseline_state=baseline)
        engine.solve("gas", self.LONGEST)
        for budget in range(1, self.LONGEST + 1):
            replay = engine.solve("gas", budget)
            fresh = SolverEngine(graph, baseline_state=baseline).solve("gas", budget)
            assert _canonical(replay) == _canonical(fresh), budget
            self._assert_replayed(engine, replay, budget)

    def test_a_longer_budget_runs_and_replaces_the_recording(self):
        graph = _replay_graph()
        engine = SolverEngine(graph)
        engine.solve("gas", 3)
        assert len(engine._gas_trajectory.rounds) == 3
        longer = engine.solve("gas", self.LONGEST)
        counts = longer.extra["recomputed_entries_per_round"]
        assert counts[0] == 0 and any(counts[1:])  # warm first round, rounds run
        assert engine.stats["tree_patches"] > 0
        assert _canonical(longer) == _canonical(SolverEngine(graph).solve("gas", self.LONGEST))
        assert len(engine._gas_trajectory.rounds) == self.LONGEST
        self._assert_replayed(engine, engine.solve("gas", 5), 5)

    def test_a_shorter_solve_of_another_key_keeps_the_recording(self):
        engine = SolverEngine(_replay_graph())
        engine.solve("gas", self.LONGEST)
        held = engine._gas_trajectory
        scan = engine.solve("gas", 3, candidates="scan")
        assert any(scan.extra["recomputed_entries_per_round"])
        assert engine._gas_trajectory is held
        self._assert_replayed(engine, engine.solve("gas", 3), 3)

    def test_initial_anchors_neither_replay_nor_record(self):
        graph = _replay_graph()
        initial = anchor_schedule(graph, 7, length=2)
        engine = SolverEngine(graph)
        first = engine.solve("gas", 3, initial_anchors=initial)
        assert engine._gas_trajectory is None
        engine.solve("gas", self.LONGEST)
        held = engine._gas_trajectory
        anchored = engine.solve("gas", 3, initial_anchors=initial)
        fresh = SolverEngine(graph).solve("gas", 3, initial_anchors=initial)
        assert _canonical(anchored) == _canonical(fresh) == _canonical(first)
        assert (
            anchored.extra["recomputed_entries_per_round"]
            == fresh.extra["recomputed_entries_per_round"]
        )
        assert engine._gas_trajectory is held

    def test_a_solve_that_raises_records_nothing(self, monkeypatch):
        graph = _replay_graph()
        engine = SolverEngine(graph)
        take = engine.take_reuse_decision
        calls = []

        def raise_in_round_three():
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("injected failure")
            return take()

        monkeypatch.setattr(engine, "take_reuse_decision", raise_in_round_three)
        with pytest.raises(RuntimeError, match="injected"):
            engine.solve("gas", self.LONGEST)
        monkeypatch.undo()
        assert engine._gas_trajectory is None
        again = engine.solve("gas", 2)
        assert engine.stats["tree_patches"] > 0
        assert _canonical(again) == _canonical(SolverEngine(graph).solve("gas", 2))

    def test_a_recording_at_another_threshold_is_never_replayed(self):
        graph = _replay_graph()
        engine = SolverEngine(graph, full_peel_threshold=math.inf)
        engine.solve("gas", self.LONGEST)
        engine.full_peel_threshold = 0.0
        run = engine.solve("gas", 3)
        assert run.extra["engine"]["full_peels"] > 0
        assert _canonical(run) == _canonical(
            SolverEngine(graph, full_peel_threshold=0.0).solve("gas", 3)
        )

    def test_a_threshold_changed_mid_solve_records_nothing(self, monkeypatch):
        graph = _replay_graph()
        engine = SolverEngine(graph, full_peel_threshold=math.inf)
        advance = engine._advance

        def advance_then_fall_back(state, anchor):
            new_state = advance(state, anchor)
            engine.full_peel_threshold = 0.0
            return new_state

        monkeypatch.setattr(engine, "_advance", advance_then_fall_back)
        engine.solve("gas", self.LONGEST)
        monkeypatch.undo()
        assert engine._gas_trajectory is None

    def test_reset_keeps_the_recording_and_replays_add_no_work(self):
        graph = _replay_graph()
        engine = SolverEngine(graph)
        longest = engine.solve("gas", self.LONGEST)
        engine.reset()
        replay = engine.solve("gas", 4)
        self._assert_replayed(engine, replay, 4)
        assert engine.session_info()["lifetime_stats"] == longest.extra["engine"]
        # The replay commits its anchors lazily: reading the state afterwards
        # materialises the same chain a run would have.
        assert engine.anchors == replay.anchors
        assert engine.state.anchors == frozenset(replay.anchors)
