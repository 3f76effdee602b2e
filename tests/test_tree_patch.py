"""Tests for the incremental component-tree maintenance and the GAS
candidate heap (PR 3): the patched tree must be structurally identical to a
from-scratch rebuild after every commit, full-peel fallbacks included, the
patch-assembled reuse decision must equal the before/after tree diff of
:func:`repro.oracles.compute_reuse_decision_reference`, and the heap
strategy must be byte-identical to the full scan — including reuse
statistics and recompute counts — on randomized anchored graphs with both
re-peel paths forced.
"""

from __future__ import annotations

import json
import math
import random

import pytest

from repro.api import canonical_result, result_to_json
from repro.core import engine as engine_module
from repro.core.component_tree import TrussComponentTree
from repro.core.engine import SolverEngine, get_solver
from repro.graph.graph import Graph
from repro.oracles import component_tree_reference, compute_reuse_decision_reference
from repro.utils.errors import InvalidParameterError
from repro.world.invariants import tree_signature

from tests.conftest import anchor_schedule, random_test_graph

#: Force the incremental re-peel (the closure can never exceed this).
ALWAYS_INCREMENTAL = math.inf
#: Force the full-peel fallback for every commit with a non-empty closure.
ALWAYS_FULL_PEEL = 0.0


def _double_k4_graph() -> Graph:
    """Two K4s sharing the edge (0, 1); (4, 5) closes the second K4.

    The shared edge has four triangles but trussness 4 (= k_max): anchoring
    the six edges around it makes it the only follower of the final commit,
    raising k_max to 5 — the smallest graph we know of where a commit grows
    the tree upward.
    """
    graph = Graph()
    for u, v in [
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (0, 4), (0, 5), (1, 4), (1, 5), (4, 5),
    ]:
        graph.add_edge(u, v)
    return graph


class TestTreePatchEquivalence:
    """apply_commit must reproduce TrussComponentTree.build exactly."""

    @pytest.mark.parametrize("seed", range(10))
    def test_patch_matches_rebuild_forced_incremental(self, seed):
        graph = random_test_graph(seed + 9000, min_n=10, max_n=22)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        for edge in anchor_schedule(graph, seed, length=6):
            engine.commit_anchor(edge)
            patched = engine.tree()
            rebuilt = TrussComponentTree.build(engine.state)
            assert tree_signature(patched) == tree_signature(rebuilt)
        assert engine.stats["tree_patches"] > 0

    @pytest.mark.parametrize("seed", range(6))
    def test_patch_matches_rebuild_default_threshold(self, seed):
        """With the default threshold, full-peel fallbacks interleave with
        patches; the tree must be exact either way."""
        graph = random_test_graph(seed + 13000, min_n=10, max_n=24)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        engine = SolverEngine(graph)
        for edge in anchor_schedule(graph, seed, length=6):
            engine.commit_anchor(edge)
            assert tree_signature(engine.tree()) == tree_signature(
                TrussComponentTree.build(engine.state)
            )

    @pytest.mark.parametrize("seed", range(6))
    def test_multi_commit_patch_batches(self, seed):
        """tree() may absorb several pending deltas at once."""
        graph = random_test_graph(seed + 12000, min_n=18, max_n=30)
        if graph.num_edges < 12:
            pytest.skip("graph too small")
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        engine.tree()
        chain = anchor_schedule(graph, seed, length=8)
        for i, edge in enumerate(chain):
            engine.commit_anchor(edge)
            if i % 3 == 2 or i == len(chain) - 1:
                assert tree_signature(engine.tree()) == tree_signature(
                    TrussComponentTree.build(engine.state)
                )
        # The baseline tree is a session asset: every commit was a patch.
        assert engine.stats["tree_rebuilds"] == 0

    @pytest.mark.parametrize("seed", range(6))
    def test_full_peel_fallbacks_are_patched(self, seed):
        """A commit that fell back to a full peel is patched like any other:
        no tree is rebuilt, and tree and decision match the oracles."""
        graph = random_test_graph(seed + 14000, min_n=10, max_n=24)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_FULL_PEEL)
        engine.tree()
        previous = engine.state
        previous_tree = component_tree_reference(previous)
        for edge in anchor_schedule(graph, seed, length=6):
            engine.commit_anchor(edge)
            invalidation = engine.take_reuse_decision()
            current = engine.state
            current_tree = component_tree_reference(current)
            assert tree_signature(engine.tree()) == tree_signature(current_tree)
            want = compute_reuse_decision_reference(
                previous_tree, current_tree, edge, current.followers_relative_to(previous)
            )
            previous, previous_tree = current, current_tree
            assert invalidation is not None
            assert invalidation.decision.invalid_node_ids == want.invalid_node_ids
            assert invalidation.decision.invalid_eids == want.invalid_eids
            assert want.invalid_eids <= invalidation.dirty_eids
        stats = engine.stats
        assert stats["full_peels"] > 0
        assert stats["tree_rebuilds"] == 0
        assert stats["tree_patches"] == stats["incremental_peels"] + stats["full_peels"]

    def test_chain_read_before_the_tree_is_built_once(self, two_communities):
        """A chain that materialised before the solve's first tree() call
        kept no states to patch with: tree() builds it once (counted), later
        commits patch that solve-local tree, and reset() returns to the
        untouched baseline tree."""
        engine = SolverEngine(two_communities, full_peel_threshold=ALWAYS_INCREMENTAL)
        baseline = engine.tree()
        fresh = tree_signature(baseline)
        engine.reset()
        chain = anchor_schedule(two_communities, 5, length=3)
        engine.commit_anchor(chain[0])
        engine.state  # materialised before the tree is asked for
        tree = engine.tree()
        assert tree is not baseline
        assert engine.stats["tree_rebuilds"] == 1
        for edge in chain[1:]:
            engine.commit_anchor(edge)
            assert engine.take_reuse_decision() is not None
            assert tree_signature(engine.tree()) == tree_signature(
                TrussComponentTree.build(engine.state)
            )
        assert engine.stats["tree_patches"] == len(chain) - 1
        assert tree_signature(baseline) == fresh
        engine.reset()
        assert engine.tree() is baseline

    def test_oracle_tree_patches_and_rolls_back(self, fig3_graph):
        """Every tree carries the dense membership a patch needs: the
        oracle's tree, journalled and patched with a commit's delta, equals
        a fresh build, and its rollback equals the oracle's tree again."""
        engine = SolverEngine(fig3_graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        engine.tree()  # from here on commits keep the states a patch needs
        reference = component_tree_reference(engine.state)
        before = tree_signature(reference)
        reference.start_journal()
        engine.commit_anchor((9, 10))
        new_state = engine.state
        reference.apply_commit(engine._deltas[0], new_state)
        assert tree_signature(reference) == tree_signature(TrussComponentTree.build(new_state))
        reference.rollback()
        assert tree_signature(reference) == before


class TestTreePatchEdgeCases:
    def test_commit_that_splits_a_node_across_levels(self):
        """A commit whose followers leave members behind: the old node's edge
        set splits across two trussness levels (the remaining members keep
        the node, the followers found or join a node one level up)."""
        graph = random_test_graph(61, min_n=8, max_n=16)
        edge = (0, 4)
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        before = engine.tree()
        node_of_eid = list(before.node_of_eid)
        old_nodes = {nid: set(node.edge_ids) for nid, node in before.nodes.items()}
        engine.commit_anchor(edge)
        engine.state  # materialise the commit (deltas are recorded lazily)
        delta = engine._deltas[0]
        assert delta is not None and delta.follower_eids
        anchor_eid = engine.index.eid_of[engine.graph.require_edge(edge)]
        split = False
        for follower in delta.follower_eids:
            members = old_nodes[node_of_eid[follower]]
            stayed = members - set(delta.follower_eids) - {anchor_eid}
            if stayed:
                split = True
        assert split, "seed 61/(0,4) no longer splits a node; pick a new seed"
        assert tree_signature(engine.tree()) == tree_signature(
            TrussComponentTree.build(engine.state)
        )

    def test_commit_that_raises_k_max(self):
        """The final commit of the double-K4 chain lifts the shared edge to a
        brand-new top trussness level; the patched tree must grow upward."""
        graph = _double_k4_graph()
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        assert engine.state.k_max == 4
        for edge in [(0, 2), (1, 2), (0, 3), (1, 3), (0, 4), (1, 4)]:
            engine.commit_anchor(edge)
            assert tree_signature(engine.tree()) == tree_signature(
                TrussComponentTree.build(engine.state)
            )
        assert engine.state.k_max == 5
        assert engine.state.trussness((0, 1)) == 5
        assert engine.stats["full_peels"] == 0
        assert any(node.k == 5 for node in engine.tree().nodes.values())

    def test_commit_with_empty_dirty_closure_reuses_heap_entries(self):
        """Anchoring a triangle-free edge has no followers and an empty dirty
        closure: the next heap round must refresh nothing and recompute no
        follower entries, while still matching the scan exactly."""
        graph = random_test_graph(4242, min_n=10, max_n=16)
        graph.add_edge("pendant-a", "pendant-b")  # closes no triangle
        pendant = graph.require_edge(("pendant-a", "pendant-b"))

        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        index = engine.state.index
        assert index.support[index.eid_of[pendant]] == 0

        heap_run = get_solver("gas")(graph, 2, initial_anchors=[pendant])
        scan_run = get_solver("gas")(
            graph, 2, initial_anchors=[pendant], candidates="scan",
        )
        assert heap_run.anchors == scan_run.anchors
        assert heap_run.gain == scan_run.gain

        # Direct check on the invalidation: committing the pendant dirties
        # no candidate at all.
        engine.tree()  # take_reuse_decision needs a pre-commit tree to patch
        engine.commit_anchor(pendant)
        invalidation = engine.take_reuse_decision()
        assert invalidation is not None
        non_anchor_dirty = {
            eid for eid in invalidation.dirty_eids
            if not engine.state.kernel_views()[3][eid]
        }
        assert non_anchor_dirty == set()


class TestAssembledDecision:
    """The patch-assembled reuse decision equals the before/after tree diff
    of the oracle, on both sides of the full-peel threshold."""

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_tree_diff(self, seed):
        graph = random_test_graph(seed + 15000, min_n=10, max_n=24)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        for threshold in (ALWAYS_INCREMENTAL, ALWAYS_FULL_PEEL):
            engine = SolverEngine(graph, full_peel_threshold=threshold)
            engine.tree()
            previous = engine.state
            for edge in anchor_schedule(graph, seed, length=5):
                engine.commit_anchor(edge)
                invalidation = engine.take_reuse_decision()
                current = engine.state
                want = compute_reuse_decision_reference(
                    component_tree_reference(previous),
                    component_tree_reference(current),
                    edge,
                    current.followers_relative_to(previous),
                )
                previous = current
                assert invalidation is not None
                assert invalidation.decision.invalid_node_ids == want.invalid_node_ids
                assert invalidation.decision.invalid_eids == want.invalid_eids


class TestInvalidationLogHygiene:
    def test_undrained_log_does_not_pin_old_trees(self, monkeypatch):
        """tree() across commits without take_reuse_decision() drops the log
        once it outgrows its limit instead of accumulating entries."""
        monkeypatch.setattr(engine_module, "_INVALIDATION_LOG_LIMIT", 2)
        graph = random_test_graph(555, min_n=12, max_n=18)
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        engine.tree()
        for edge in graph.edge_list()[:6]:
            engine.commit_anchor(edge)
            engine.tree()
        assert engine.stats["tree_patches"] == 6
        assert engine._invalidation_log is None
        # the dropped log yields the conservative answer
        assert engine.take_reuse_decision() is None


class TestHeapScanEquivalence:
    """candidates='heap' is byte-identical to candidates='scan' across
    fallback thresholds — anchors, gains, followers, reuse stats and
    recompute counts."""

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("threshold", [ALWAYS_INCREMENTAL, 0.0, None])
    def test_full_matrix(self, seed, threshold):
        graph = random_test_graph(seed + 20000, min_n=12, max_n=26)
        if graph.num_edges < 8:
            pytest.skip("graph too small")
        rng = random.Random(seed)
        initial = rng.sample(graph.edge_list(), 2) if seed % 3 == 0 else []
        kwargs = {} if threshold is None else {"full_peel_threshold": threshold}

        def gas(candidates):
            engine = SolverEngine(graph, **kwargs)
            return engine.solve("gas", 4, initial_anchors=initial, candidates=candidates)

        reference = gas("scan")
        run = gas("heap")
        assert run.anchors == reference.anchors
        assert run.gain == reference.gain
        assert run.per_round_gain == reference.per_round_gain
        assert run.followers == reference.followers
        assert (
            run.extra["recomputed_entries_per_round"]
            == reference.extra["recomputed_entries_per_round"]
        )
        assert run.extra["reuse_stats"] == reference.extra["reuse_stats"]

    def test_heap_strategy_is_the_default(self, two_communities):
        result = get_solver("gas")(two_communities, 3)
        assert result.extra["candidate_strategy"] == "heap"
        assert result.extra["engine"]["tree_patches"] > 0

    def test_unknown_candidates_strategy_rejected(self, fig3_graph):
        with pytest.raises(InvalidParameterError):
            get_solver("gas")(fig3_graph, 1, candidates="btree")

    def test_peel_method_through_heap(self, two_communities):
        a = get_solver("gas")(two_communities, 3, method="peel")
        b = get_solver("gas")(two_communities, 3, method="peel", candidates="scan")
        assert a.anchors == b.anchors
        assert a.gain == b.gain

    def test_session_reuse_with_heap(self, two_communities):
        """One engine serving several heap solves matches fresh engines."""
        engine = SolverEngine(two_communities)
        first = engine.solve("gas", 3)
        second = engine.solve("gas", 3)
        assert first.anchors == second.anchors
        assert first.gain == second.gain


def _canonical(result) -> str:
    return json.dumps(canonical_result(result_to_json(result)), sort_keys=True)


class TestWarmSessionRollback:
    """reset() rolls the session's baseline tree back to a fresh build —
    after a plain solve, one with initial anchors, one whose commits fall
    back to a full peel mid-solve, and one whose patch raised part-way —
    and the next solve equals a fresh engine's, ``extra.engine`` included."""

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("case", ["plain", "initial_anchors", "fallback", "raised"])
    @pytest.mark.parametrize("algorithm", ["gas", "base"])
    def test_reset_restores_a_fresh_tree(self, algorithm, case, seed, monkeypatch):
        graph = random_test_graph(seed + 31000, min_n=14, max_n=24)
        engine = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL)
        fresh = tree_signature(component_tree_reference(engine.original_state))
        initial = anchor_schedule(graph, seed, length=2) if case == "initial_anchors" else []
        budget = 4
        if case == "fallback":
            # The first commit is re-peeled incrementally; every later one
            # falls back to a full peel.  All of them patch the baseline.
            advance = engine._advance

            def advance_then_fall_back(state, anchor):
                new_state = advance(state, anchor)
                engine.full_peel_threshold = 0.0
                return new_state

            monkeypatch.setattr(engine, "_advance", advance_then_fall_back)
        if case == "raised":
            def explode(*_args, **_kwargs):
                raise RuntimeError("injected patch failure")

            # Phase 4 of apply_commit: phases 1-3 have already moved nodes.
            monkeypatch.setattr(TrussComponentTree, "_recompute_sla_of", explode)
            with pytest.raises(RuntimeError, match="injected"):
                engine.solve(algorithm, budget)
        else:
            first = engine.solve(algorithm, budget, initial_anchors=initial)
            assert first.extra["engine"]["tree_patches"] > 0
        monkeypatch.undo()
        engine.full_peel_threshold = ALWAYS_INCREMENTAL
        assert tree_signature(engine._baseline_tree) != fresh  # patched in place

        engine.reset()
        tree = engine.tree()
        assert tree is engine._baseline_tree
        assert tree_signature(tree) == fresh
        assert engine.stats["tree_rebuilds"] == 0

        # One round more than the first solve: an equal unanchored GAS budget
        # would replay the session's recorded rounds, and no round would run
        # on the rolled-back tree.
        warm = engine.solve(algorithm, budget + 1, initial_anchors=initial)
        cold = SolverEngine(graph, full_peel_threshold=ALWAYS_INCREMENTAL).solve(
            algorithm, budget + 1, initial_anchors=initial
        )
        assert warm.extra["engine"]["tree_patches"] > 0
        assert _canonical(warm) == _canonical(cold)

    def test_initial_anchors_are_patched_not_rebuilt(self, two_communities):
        initial = anchor_schedule(two_communities, 3, length=2)
        engine = SolverEngine(two_communities, full_peel_threshold=ALWAYS_INCREMENTAL)
        for _ in range(2):
            result = engine.solve("gas", 2, initial_anchors=initial)
            # One patch per initial anchor plus one per non-final round.
            assert result.extra["engine"]["tree_patches"] == len(initial) + 1
            assert result.extra["engine"]["tree_rebuilds"] == 0

    def test_solvers_that_skip_the_tree_pin_no_states(self, two_communities):
        engine = SolverEngine(two_communities, full_peel_threshold=ALWAYS_INCREMENTAL)
        engine.solve("gas", 2)  # the session now holds a baseline tree
        engine.solve("base+", 3)
        engine.state  # materialise the whole chain
        assert len(engine._deltas) == 3
        assert all(d.state_after is None for d in engine._deltas)
