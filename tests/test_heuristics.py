"""Tests for the Rand / Sup / Tur random baselines."""

from __future__ import annotations

import pytest

from repro.api import Session, canonical_result, result_to_json
from repro.core import heuristics
from repro.core.gas import gas
from repro.core.heuristics import random_baseline, support_baseline, upward_route_baseline
from repro.core.upward_route import upward_route_size
from repro.graph.generators import community_graph
from repro.graph.triangles import support_map
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError


@pytest.fixture(scope="module")
def dense_graph():
    return community_graph([14, 12], p_in=0.7, p_out=0.05, seed=55)


class TestBasicBehaviour:
    def test_budget_is_respected(self, dense_graph):
        result = random_baseline(dense_graph, 4, repetitions=5, seed=1)
        assert len(result.anchors) == 4
        assert result.algorithm == "Rand"
        assert result.extra["repetitions"] == 5

    def test_deterministic_for_seed(self, dense_graph):
        a = random_baseline(dense_graph, 3, repetitions=10, seed=7)
        b = random_baseline(dense_graph, 3, repetitions=10, seed=7)
        assert a.anchors == b.anchors
        assert a.gain == b.gain

    def test_more_repetitions_never_hurt(self, dense_graph):
        few = random_baseline(dense_graph, 3, repetitions=3, seed=3)
        many = random_baseline(dense_graph, 3, repetitions=30, seed=3)
        assert many.gain >= few.gain

    def test_gain_is_nonnegative(self, dense_graph):
        for baseline in (random_baseline, support_baseline, upward_route_baseline):
            result = baseline(dense_graph, 2, repetitions=3, seed=2)
            assert result.gain >= 0


class TestPools:
    def test_support_pool_is_top_fraction(self, dense_graph):
        result = support_baseline(dense_graph, 2, repetitions=3, top_fraction=0.1, seed=4)
        assert result.extra["pool_size"] == max(1, int(dense_graph.num_edges * 0.1))

    def test_route_pool_accepts_precomputed_sizes(self, dense_graph):
        from repro.core.upward_route import upward_route_size

        state = TrussState.compute(dense_graph)
        sizes = {e: upward_route_size(state, e) for e in dense_graph.edges()}
        result = upward_route_baseline(
            dense_graph, 2, repetitions=3, seed=5, route_sizes=sizes, baseline_state=state
        )
        assert result.algorithm == "Tur"
        assert result.gain >= 0

    def test_invalid_fraction(self, dense_graph):
        with pytest.raises(InvalidParameterError):
            support_baseline(dense_graph, 2, repetitions=2, top_fraction=0.0)
        with pytest.raises(InvalidParameterError):
            upward_route_baseline(dense_graph, 2, repetitions=2, top_fraction=1.5)

    def test_invalid_repetitions(self, dense_graph):
        with pytest.raises(InvalidParameterError):
            random_baseline(dense_graph, 2, repetitions=0)


class TestAgainstGas:
    def test_gas_beats_every_random_baseline(self, dense_graph):
        """The headline effectiveness claim of Exp-1 / Exp-3."""
        budget = 4
        gas_gain = gas(dense_graph, budget).gain
        for baseline in (random_baseline, support_baseline, upward_route_baseline):
            result = baseline(dense_graph, budget, repetitions=10, seed=11)
            assert gas_gain >= result.gain


class TestSupportPool:
    def test_pool_is_the_recounted_support_ranking(self, dense_graph, monkeypatch):
        # Re-adding an edge gives it the largest edge id, so dense order and
        # insertion order differ from the generator's.
        graph = dense_graph.copy()
        first = graph.edge_list()[0]
        graph.remove_edge(*first)
        graph.add_edge(*first)
        pools = []
        real = heuristics._run_repetitions

        def spy(graph_arg, pool, *args):
            pools.append(list(pool))
            return real(graph_arg, pool, *args)

        monkeypatch.setattr(heuristics, "_run_repetitions", spy)
        for subject in (dense_graph, graph):
            support_baseline(subject, 2, repetitions=2, top_fraction=0.3, seed=1)
            supports = support_map(subject)
            ranked = sorted(
                subject.edge_list(), key=lambda e: (-supports[e], subject.edge_id(e))
            )
            assert pools[-1] == ranked[: int(subject.num_edges * 0.3)]


class TestRouteSizes:
    def test_session_solves_a_seeded_spec_with_tuple_keyed_sizes(self, dense_graph):
        state = TrussState.compute(dense_graph)
        sizes = {e: upward_route_size(state, e) for e in dense_graph.edges()}
        params = {"seed": 5, "repetitions": 3, "route_sizes": sizes}
        outcome = Session(graph=dense_graph).solve(algorithm="tur", budget=2, params=params)
        assert outcome.ok, outcome.error
        expected = upward_route_baseline(
            dense_graph, 2, repetitions=3, seed=5, route_sizes=sizes
        )
        assert canonical_result(outcome.result) == canonical_result(result_to_json(expected))

    @pytest.mark.parametrize(
        "sizes",
        [
            {"1,2": 5},
            [(1, 2, 5)],
            7,
            {(-1, -2): 3},
            {(0, 1, 2): 3},
        ],
        ids=["string-key", "list", "int", "not-an-edge", "not-a-pair"],
    )
    def test_unusable_sizes_are_rejected(self, dense_graph, sizes):
        with pytest.raises(InvalidParameterError, match="route_sizes"):
            upward_route_baseline(dense_graph, 2, repetitions=2, seed=1, route_sizes=sizes)

    @pytest.mark.parametrize("size", [-1, True, 2.5, "3"])
    def test_sizes_must_be_non_negative_ints(self, dense_graph, size):
        edge = dense_graph.edge_list()[0]
        with pytest.raises(InvalidParameterError, match="int >= 0"):
            upward_route_baseline(
                dense_graph, 2, repetitions=2, seed=1, route_sizes={edge: size}
            )
