"""Tests for the SolverEngine layer: registry, incremental re-peeling and
byte-identical equivalence of every greedy solver with the from-scratch
BASE oracle (and of the exact solver with the exact oracle).
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.core.engine import (
    SolverEngine,
    available_solvers,
    get_solver,
    register_solver,
    solve,
    solver_table,
)
from repro.core.component_tree import TrussComponentTree
from repro.core.exact import exact_atr
from repro.core.gas import gas
from repro.core.greedy import base_greedy, base_plus_greedy
from repro.core.heuristics import random_baseline, support_baseline, upward_route_baseline
from repro.core.result import evaluate_anchor_set
from repro.graph.generators import paper_figure1_graph
from repro.oracles import base_greedy_reference, exact_atr_reference
from repro.truss.decomposition import truss_decomposition
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError
from repro.world.invariants import tree_signature

from tests.conftest import anchor_schedule, random_test_graph

#: Force the incremental path (the closure can never exceed this fraction).
ALWAYS_INCREMENTAL = math.inf
#: Force the full-peel fallback (any non-empty closure exceeds 0 edges).
ALWAYS_FULL = 0.0


class TestRegistry:
    def test_builtins_are_registered(self):
        assert {"gas", "base", "base+", "exact", "rand", "sup", "tur"} <= set(
            available_solvers()
        )

    def test_get_solver_unknown_name(self):
        with pytest.raises(InvalidParameterError):
            get_solver("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(InvalidParameterError):
            register_solver("gas", lambda engine, request: None)

    def test_solver_table_is_a_live_view(self):
        table = solver_table()
        assert "gas" in table
        assert set(table) == set(available_solvers())

        @register_solver("test-live-view", description="registered after the view")
        def _custom(engine, request):  # pragma: no cover - never solved
            raise AssertionError

        try:
            assert "test-live-view" in table
            assert table["test-live-view"].description == "registered after the view"
        finally:
            from repro.core import engine as engine_module

            del engine_module._REGISTRY["test-live-view"]

    def test_custom_solver_runs_through_engine(self, fig3_graph):
        @register_solver("test-first-edges", description="picks the first b edges")
        def _first_edges(engine, request):
            for edge in engine.graph.edge_list()[: request.budget]:
                engine.commit_anchor(edge)
            return evaluate_anchor_set(
                engine.graph, engine.anchors, algorithm="FirstEdges"
            )

        try:
            result = solve(fig3_graph, 2, algorithm="test-first-edges")
            assert result.algorithm == "FirstEdges"
            assert result.anchors == fig3_graph.edge_list()[:2]
        finally:
            from repro.core import engine as engine_module

            del engine_module._REGISTRY["test-first-edges"]

    def test_spec_call_matches_wrapper(self, fig3_graph):
        via_spec = get_solver("gas")(fig3_graph, 2)
        via_wrapper = gas(fig3_graph, 2)
        assert via_spec.anchors == via_wrapper.anchors
        assert via_spec.gain == via_wrapper.gain


class TestIncrementalRePeeling:
    """The incremental re-peel must reproduce the full decomposition exactly
    — trussness, layers and k_max — on randomized anchored graphs, on both
    sides of the fallback threshold."""

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("threshold", [ALWAYS_INCREMENTAL, ALWAYS_FULL, None])
    def test_chain_matches_full_decomposition(self, seed, threshold):
        graph = random_test_graph(seed + 4200, min_n=10, max_n=20)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        kwargs = {} if threshold is None else {"full_peel_threshold": threshold}
        engine = SolverEngine(graph, **kwargs)
        chain = anchor_schedule(graph, seed)
        for i, edge in enumerate(chain):
            engine.commit_anchor(edge)
            state = engine.state
            reference = truss_decomposition(graph, chain[: i + 1])
            assert state.decomposition.trussness == reference.trussness
            assert state.decomposition.layer == reference.layer
            assert state.decomposition.k_max == reference.k_max
            assert state.anchors == reference.anchors

    @pytest.mark.parametrize("seed", range(6))
    def test_forced_paths_agree_with_each_other(self, seed):
        graph = random_test_graph(seed + 4300, min_n=12, max_n=20)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        chain = anchor_schedule(graph, seed, length=4)
        incremental = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        full = SolverEngine(graph, full_peel_threshold=ALWAYS_FULL)
        for edge in chain:
            incremental.commit_anchor(edge)
            full.commit_anchor(edge)
        assert (
            incremental.state.decomposition.trussness == full.state.decomposition.trussness
        )
        assert incremental.state.decomposition.layer == full.state.decomposition.layer
        assert incremental.stats["incremental_peels"] > 0
        assert incremental.stats["full_peels"] == 0
        assert full.stats["incremental_peels"] == 0
        assert full.stats["full_peels"] > 0

    def test_invalid_full_peel_threshold_is_rejected(self, fig3_graph):
        """A non-numeric, boolean, negative or NaN threshold fails when the
        engine is built, before any solve runs."""
        for value in ("abc", True, -5, float("nan")):
            with pytest.raises(InvalidParameterError, match="full_peel_threshold"):
                SolverEngine(fig3_graph, full_peel_threshold=value)  # type: ignore[arg-type]

    def test_threshold_is_set_on_the_engine_only(self, fig3_graph):
        """The registry call and ``solve`` hand their keywords to the solver,
        which has no such parameter: the engine constructor is the one
        place the threshold is set."""
        with pytest.raises(InvalidParameterError, match="full_peel_threshold"):
            get_solver("gas")(fig3_graph, 1, full_peel_threshold=ALWAYS_FULL)
        with pytest.raises(InvalidParameterError, match="full_peel_threshold"):
            solve(fig3_graph, 1, "base", full_peel_threshold=ALWAYS_FULL)

    @pytest.mark.parametrize("seed", range(6))
    def test_evaluate_gain_matches_recompute(self, seed):
        graph = random_test_graph(seed + 4400, min_n=10, max_n=16)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        anchors = anchor_schedule(graph, seed, length=2)
        engine = SolverEngine(graph)
        for edge in anchors:
            engine.commit_anchor(edge)
        state = engine.state
        for candidate in list(state.non_anchor_edges())[:20]:
            anchored = state.with_anchor(candidate)
            expected = anchored.trussness_gain_from(state)
            assert engine.evaluate_gain(candidate) == expected

    @pytest.mark.parametrize("threshold", [ALWAYS_INCREMENTAL, ALWAYS_FULL])
    def test_evaluate_gain_both_paths(self, threshold, fig3_graph):
        engine = SolverEngine(fig3_graph, full_peel_threshold=threshold)
        state = engine.state
        for candidate in fig3_graph.edge_list():
            anchored = state.with_anchor(candidate)
            assert engine.evaluate_gain(candidate) == anchored.trussness_gain_from(state)

    @pytest.mark.parametrize("seed", range(4))
    def test_chain_gain_matches_with_anchors(self, seed):
        graph = random_test_graph(seed + 4500, min_n=10, max_n=14)
        if graph.num_edges < 6:
            pytest.skip("graph too small")
        rng = random.Random(seed)
        engine = SolverEngine(graph)
        baseline = engine.original_state
        for _ in range(5):
            subset = rng.sample(graph.edge_list(), min(3, graph.num_edges))
            expected = baseline.with_anchors(subset).trussness_gain_from(baseline)
            assert engine.evaluate_anchor_chain_gain(subset) == expected

    def test_already_anchored_commit_rejected(self, fig3_graph):
        engine = SolverEngine(fig3_graph)
        edge = fig3_graph.edge_list()[0]
        engine.commit_anchor(edge)
        engine.commit_anchor(edge)
        with pytest.raises(InvalidParameterError):
            engine.state  # materialisation detects the duplicate

    def test_tree_is_cached_per_state(self, fig3_graph):
        engine = SolverEngine(fig3_graph)
        tree_a = engine.tree()
        assert engine.tree() is tree_a
        patches = engine.stats["tree_patches"]
        engine.commit_anchor(fig3_graph.edge_list()[0])
        assert tree_signature(engine.tree()) == tree_signature(
            TrussComponentTree.build(engine.state)
        )
        assert engine.stats["tree_patches"] == patches + 1
        engine.tree()
        assert engine.stats["tree_patches"] == patches + 1


class TestSolverEquivalence:
    """Every greedy solver through the engine returns byte-identical anchor
    sets to the from-scratch BASE oracle (Lemma 1: the gain of anchoring x
    is |F(x)|, so BASE, BASE+ and GAS pick the same anchors), on seeded
    random graphs with and without initial anchors, on both sides of the
    fallback threshold."""

    PAIRS = [
        (base_greedy, base_greedy_reference),
        (base_plus_greedy, base_greedy_reference),
        (gas, base_greedy_reference),
    ]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("pair_index", range(3))
    def test_random_graphs(self, seed, pair_index):
        engine_fn, reference_fn = self.PAIRS[pair_index]
        graph = random_test_graph(seed + 4600, min_n=10, max_n=18)
        if graph.num_edges < 6:
            pytest.skip("graph too small")
        fast = engine_fn(graph, 4)
        reference = reference_fn(graph, 4)
        assert fast.anchors == reference.anchors
        assert fast.gain == reference.gain
        assert fast.per_round_gain == reference.per_round_gain
        assert fast.followers == reference.followers

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("pair_index", range(3))
    def test_anchored_graphs(self, seed, pair_index):
        """Initial anchors exercise the incremental chain before round one."""
        engine_fn, reference_fn = self.PAIRS[pair_index]
        graph = random_test_graph(seed + 4700, min_n=12, max_n=18)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        initial = anchor_schedule(graph, seed, length=2)
        fast = engine_fn(graph, 3, initial_anchors=initial)
        reference = reference_fn(graph, 3, initial_anchors=initial)
        assert fast.anchors == reference.anchors
        assert fast.gain == reference.gain

    @pytest.mark.parametrize("threshold", [ALWAYS_INCREMENTAL, ALWAYS_FULL])
    def test_base_both_peel_paths(self, threshold):
        graph = random_test_graph(4811, min_n=12, max_n=16)
        fast = SolverEngine(graph, full_peel_threshold=threshold).solve("base", 3)
        reference = base_greedy_reference(graph, 3)
        assert fast.anchors == reference.anchors
        assert fast.gain == reference.gain

    @pytest.mark.parametrize("threshold", [ALWAYS_INCREMENTAL, ALWAYS_FULL])
    def test_gas_both_peel_paths(self, threshold):
        graph = random_test_graph(4812, min_n=12, max_n=16)
        fast = SolverEngine(graph, full_peel_threshold=threshold).solve("gas", 3)
        reference = base_greedy_reference(graph, 3)
        assert fast.anchors == reference.anchors
        assert fast.gain == reference.gain

    def test_non_submodular_example(self):
        graph = paper_figure1_graph()
        for engine_fn, reference_fn in self.PAIRS:
            fast = engine_fn(graph, 2)
            reference = reference_fn(graph, 2)
            assert fast.anchors == reference.anchors
            assert fast.gain == reference.gain

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_equivalence(self, seed):
        graph = random_test_graph(seed + 4900, min_n=8, max_n=11)
        if graph.num_edges < 4:
            pytest.skip("graph too small")
        fast = exact_atr(graph, 2)
        reference = exact_atr_reference(graph, 2)
        assert fast.anchors == reference.anchors
        assert fast.gain == reference.gain
        assert fast.extra["evaluated_subsets"] == reference.extra["evaluated_subsets"]

    def test_duplicate_initial_anchors_deduplicated(self, fig3_graph):
        """The oracle deduplicates via frozenset; the engine chain must not
        choke on the same edge listed twice."""
        edge = fig3_graph.edge_list()[0]
        result = gas(fig3_graph, 1, initial_anchors=[edge, edge])
        reference = base_greedy_reference(fig3_graph, 1, initial_anchors=[edge, edge])
        assert result.anchors[-1] == reference.anchors[-1]
        assert result.gain == reference.gain
        assert result.anchors.count(edge) == 1

    def test_anchored_baseline_gain_is_consistent(self, fig3_graph):
        """With an anchored baseline_state the reported gain measures the
        same problem the rounds scored (it telescopes to the round scores)."""
        baseline = TrussState.compute(fig3_graph, [fig3_graph.edge_list()[0]])
        engine = SolverEngine(fig3_graph, baseline_state=baseline)
        result = engine.solve("gas", 2)
        assert result.gain == sum(result.per_round_gain)

    def test_unknown_params_rejected(self, fig3_graph):
        """Typo'd solver parameters fail loudly instead of silently running
        with defaults (the keyword wrappers used to raise TypeError)."""
        with pytest.raises(InvalidParameterError):
            get_solver("gas")(fig3_graph, 1, metho="peel")
        with pytest.raises(InvalidParameterError):
            get_solver("rand")(fig3_graph, 1, repetitons=5)
        with pytest.raises(InvalidParameterError):
            get_solver("base")(fig3_graph, 1, method="peel")

    def test_anchored_baseline_is_order_independent(self, fig3_graph):
        """Commits stack on a baseline's own anchors the same way whether the
        state is first read before or after the commit."""
        edges = fig3_graph.edge_list()
        baseline = TrussState.compute(fig3_graph, [edges[0]])

        commit_first = SolverEngine(fig3_graph, baseline_state=baseline)
        commit_first.commit_anchor(edges[5])
        read_first = SolverEngine(fig3_graph, baseline_state=baseline)
        _ = read_first.state
        read_first.commit_anchor(edges[5])

        assert commit_first.state.anchors == read_first.state.anchors == frozenset(
            {edges[0], edges[5]}
        )
        assert (
            commit_first.state.decomposition.trussness
            == read_first.state.decomposition.trussness
        )

    def test_initial_anchors_rejected_where_unsupported(self, fig3_graph):
        """exact/rand/sup/tur cannot honour pre-set anchors: fail fast
        instead of silently solving a different problem."""
        edge = fig3_graph.edge_list()[0]
        for name in ("exact", "rand", "sup", "tur"):
            with pytest.raises(InvalidParameterError):
                SolverEngine(fig3_graph).solve(name, 1, initial_anchors=[edge])

    def test_heuristics_are_deterministic_through_engine(self, two_communities):
        """Same seed -> same draws -> same result as a direct evaluation."""
        for baseline in (random_baseline, support_baseline, upward_route_baseline):
            a = baseline(two_communities, 3, repetitions=10, seed=99)
            b = baseline(two_communities, 3, repetitions=10, seed=99)
            assert a.anchors == b.anchors
            assert a.gain == b.gain

    def test_gas_session_reuse_across_solves(self, two_communities):
        """One engine can serve several solves; results match fresh engines."""
        engine = SolverEngine(two_communities)
        first = engine.solve("gas", 3)
        second = engine.solve("gas", 3)
        assert first.anchors == second.anchors
        assert first.gain == second.gain
        assert engine.solve("base+", 2).anchors == base_plus_greedy(two_communities, 2).anchors


class TestEngineDiagnostics:
    def test_stats_exposed_in_result_extra(self, two_communities):
        result = gas(two_communities, 3)
        stats = result.extra["engine"]
        assert stats["incremental_peels"] + stats["full_peels"] >= 1

    def test_base_uses_restricted_gain_evaluations(self, two_communities):
        result = base_greedy(two_communities, 2)
        stats = result.extra["engine"]
        assert stats["incremental_gain_evals"] + stats["full_gain_evals"] > 0


class TestSessionReuse:
    """A cached (warm) engine must be indistinguishable from a fresh one."""

    def test_back_to_back_solves_equal_fresh_solves(self, two_communities):
        engine = SolverEngine(two_communities)
        for algorithm, budget, params in (
            ("gas", 3, {}),
            ("base", 2, {}),
            ("base+", 2, {}),
            ("sup", 2, {"seed": 4, "repetitions": 5}),
        ):
            warm = engine.solve(algorithm, budget, **params)
            fresh = SolverEngine(two_communities).solve(algorithm, budget, **params)
            assert warm.anchors == fresh.anchors
            assert warm.gain == fresh.gain
            assert warm.per_round_gain == fresh.per_round_gain
            assert warm.followers == fresh.followers

    def test_reset_restores_per_solve_stats(self, two_communities):
        """The session-reuse fix: extra['engine'] must not leak across solves."""
        engine = SolverEngine(two_communities)
        first = engine.solve("gas", 3)
        second = engine.solve("gas", 3)
        fresh = SolverEngine(two_communities).solve("gas", 3)
        assert first.extra["engine"] == second.extra["engine"] == fresh.extra["engine"]

    def test_reset_restores_original_state_exactly(self, two_communities):
        engine = SolverEngine(two_communities)
        baseline = engine.original_state
        before = dict(baseline.decomposition.trussness)
        engine.solve("gas", 3)
        engine.solve("base", 2)
        assert engine.original_state is baseline
        assert dict(baseline.decomposition.trussness) == before
        # the chain holds only the last solve's anchors, not an accumulation
        assert len(engine.anchors) == 2

    def test_lifetime_stats_accumulate(self, two_communities):
        engine = SolverEngine(two_communities)
        first = engine.solve("gas", 2)
        second = engine.solve("gas", 2)
        info = engine.session_info()
        assert info["solve_count"] == 2
        stats_sum = {
            key: first.extra["engine"][key] + second.extra["engine"][key]
            for key in first.extra["engine"]
        }
        assert info["lifetime_stats"] == stats_sum
        assert info["num_edges"] == two_communities.num_edges

    def test_mixed_solvers_on_one_session(self, two_communities):
        engine = SolverEngine(two_communities)
        gas_result = engine.solve("gas", 2)
        base_result = engine.solve("base", 2)
        assert gas_result.anchors == base_result.anchors  # equivalence holds warm
        assert engine.solve("rand", 2, seed=7, repetitions=5).gain >= 0
