"""Tests for the follower-reuse bookkeeping (Algorithm 5 / Lemma 5): the
decision the engine assembles from its tree patch
(:meth:`SolverEngine.take_reuse_decision`) after one committed anchor."""

from __future__ import annotations

import pytest

from repro.core.component_tree import TrussComponentTree
from repro.core.engine import SolverEngine
from repro.core.followers import followers_support_check
from repro.core.reuse import ReuseDecision, ReuseStats, classify_reuse
from repro.truss.state import TrussState

from tests.conftest import random_test_graph


def _commit_and_decide(graph, anchor):
    """``(new_tree, decision)`` of committing ``anchor`` on a fresh engine."""
    engine = SolverEngine(graph)
    engine.tree()
    engine.commit_anchor(anchor)
    invalidation = engine.take_reuse_decision()
    assert invalidation is not None
    return engine.tree(), invalidation.decision


def _decision_after_anchoring(graph, anchor):
    state = TrussState.compute(graph)
    tree = TrussComponentTree.build(state)
    followers = followers_support_check(state, anchor)
    new_tree, decision = _commit_and_decide(graph, anchor)
    return state, tree, new_tree.state, new_tree, followers, decision


class TestDecisionOnFigure3:
    def test_changed_nodes_are_invalidated(self, fig3_graph):
        _state, tree, _new_state, _new_tree, followers, decision = _decision_after_anchoring(
            fig3_graph, (9, 10)
        )
        # the anchor's own node and the follower nodes must be invalid
        assert tree.node_of((9, 10)).node_id in decision.invalid_node_ids
        for follower in followers:
            assert tree.node_of(follower).node_id in decision.invalid_node_ids

    def test_sla_of_anchor_is_invalidated(self, fig3_graph):
        _state, tree, _new_state, _new_tree, _followers, decision = _decision_after_anchoring(
            fig3_graph, (9, 10)
        )
        assert tree.sla((9, 10)) <= decision.invalid_node_ids

    def test_followers_own_cache_is_dropped(self, fig3_graph):
        state, *_rest, decision = _decision_after_anchoring(fig3_graph, (9, 10))
        eid_of = state.index.eid_of
        assert eid_of[(8, 9)] in decision.invalid_eids
        assert eid_of[(7, 8)] in decision.invalid_eids

    def test_untouched_far_away_node_stays_valid_somewhere(self, clique_chain):
        """On a graph with several separate components, anchoring in one
        component must leave at least one node of the others valid."""
        state = TrussState.compute(clique_chain)
        tree = TrussComponentTree.build(state)
        anchor = max(
            state.non_anchor_edges(),
            key=lambda e: len(followers_support_check(state, e)),
        )
        *_rest, decision = _decision_after_anchoring(clique_chain, anchor)
        valid_old_nodes = [nid for nid in tree.nodes if nid not in decision.invalid_node_ids]
        assert valid_old_nodes


class TestReuseSoundness:
    """The core guarantee: a cached follower entry declared reusable is equal
    to what a fresh computation would produce after the anchoring."""

    @pytest.mark.parametrize("seed", range(10))
    def test_valid_entries_are_really_unchanged(self, seed):
        graph = random_test_graph(seed + 600, min_n=10, max_n=18)
        if graph.num_edges < 5:
            pytest.skip("graph too small")
        state = TrussState.compute(graph)
        tree = TrussComponentTree.build(state)

        # cache F[e][id] for every edge
        cache = {}
        for edge in state.non_anchor_edges():
            followers = followers_support_check(state, edge)
            entry = {}
            for follower in followers:
                entry.setdefault(tree.node_of(follower).node_id, set()).add(follower)
            cache[edge] = entry

        # pick the anchor the greedy would pick
        anchor = max(cache, key=lambda e: (sum(len(v) for v in cache[e].values()), -graph.edge_id(e)))
        followers_of_anchor = set().union(*cache[anchor].values()) if cache[anchor] else set()

        new_tree, decision = _commit_and_decide(graph, anchor)
        new_state = new_tree.state
        assert new_state.followers_relative_to(state) == followers_of_anchor

        eid_of = new_state.index.eid_of
        for edge in new_state.non_anchor_edges():
            if eid_of[edge] in decision.invalid_eids:
                continue
            fresh = followers_support_check(new_state, edge)
            fresh_by_node = {}
            for follower in fresh:
                fresh_by_node.setdefault(new_tree.node_of(follower).node_id, set()).add(follower)
            for node_id, cached in cache.get(edge, {}).items():
                if node_id in decision.invalid_node_ids:
                    continue
                assert fresh_by_node.get(node_id, set()) == cached


class TestClassification:
    def test_classify_fr_pr_nr(self):
        decision = ReuseDecision(invalid_node_ids={1, 2}, invalid_eids={9})
        assert classify_reuse({3, 4}, decision, 0) == "FR"
        assert classify_reuse({1, 3}, decision, 0) == "PR"
        assert classify_reuse({1, 2}, decision, 0) == "NR"
        assert classify_reuse(set(), decision, 0) == "NR"
        assert classify_reuse({3}, decision, 9) == "NR"

    def test_stats_fractions(self):
        stats = ReuseStats(fully_reusable=8, partially_reusable=1, non_reusable=1)
        fractions = stats.fractions()
        assert fractions["FR"] == pytest.approx(0.8)
        assert stats.total == 10

    def test_stats_empty(self):
        stats = ReuseStats()
        assert stats.total == 0
        assert stats.fractions()["FR"] == 0.0
