"""End-to-end checks of the paper's worked examples and theorem statements.

These tests tie the individual components together exactly the way the paper
presents them:

* Example 1 / Theorem 2: the non-submodularity construction around Fig. 1(a);
* Example 2: the deletion layers of Fig. 3;
* Example 3: the upward route of the 3-hull chain;
* Example 4: the follower computation for anchor (v9, v10);
* Example 5 / Fig. 4: the truss component tree and the sla sets;
* Theorem 1: the maximum-coverage reduction (see test_reduction.py for the
  full battery; here only the headline equivalence is repeated).
"""

from __future__ import annotations

import pytest

from repro.core.component_tree import TrussComponentTree
from repro.core.followers import followers_support_check
from repro.core.gas import gas
from repro.core.upward_route import has_upward_route
from repro.graph.generators import paper_figure1_graph, paper_figure3_graph
from repro.truss.state import TrussState


@pytest.fixture(scope="module")
def graph():
    return paper_figure3_graph()


@pytest.fixture(scope="module")
def state(graph):
    return TrussState.compute(graph)


class TestExample2Layers:
    def test_deletion_order_of_the_3_hull(self, state):
        expected = {(9, 10): 1, (8, 9): 2, (7, 8): 3, (5, 8): 4}
        for edge, layer in expected.items():
            assert state.trussness(edge) == 3
            assert state.layer(edge) == layer

    def test_order_relation(self, state):
        assert state.precedes((9, 10), (8, 9))
        assert state.precedes((8, 9), (7, 8))
        assert state.precedes((7, 8), (5, 8))


class TestExample3UpwardRoute:
    def test_route_along_the_chain(self, state):
        assert has_upward_route(state, (9, 10), (8, 9))
        assert has_upward_route(state, (9, 10), (7, 8))
        assert has_upward_route(state, (9, 10), (5, 8))


class TestExample4Followers:
    def test_followers_of_v9_v10(self, state):
        assert followers_support_check(state, (9, 10)) == {(8, 9), (7, 8), (5, 8)}

    def test_route_through_h4_is_rejected(self, state):
        # (v8, v10) has only two effective triangles at level 5, fewer than
        # t(e) - 1 = 3, so the 4-hull route produces no followers.
        assert (8, 10) not in followers_support_check(state, (9, 10))


class TestExample5Tree:
    def test_tree_matches_figure4(self, state):
        tree = TrussComponentTree.build(state)
        by_k = sorted((node.k, len(node)) for node in tree.nodes.values())
        assert by_k == [(3, 4), (4, 9), (4, 9), (5, 10)]

    def test_sla_values(self, state):
        tree = TrussComponentTree.build(state)
        assert tree.sla((9, 10)) == {0, 13}
        assert tree.sla((5, 8)) == {0, 4, 13, 22}


class TestTheorem2NonSubmodularity:
    def test_counterexample(self):
        graph = paper_figure1_graph()
        state = TrussState.compute(graph)
        a, b = (3, 8), (5, 6)
        gain_a = state.with_anchor(a).trussness_gain_from(state)
        gain_b = state.with_anchor(b).trussness_gain_from(state)
        gain_ab = state.with_anchors([a, b]).trussness_gain_from(state)
        # submodularity would require gain_a + gain_b >= gain_ab (+ gain of
        # the empty intersection, which is 0); the construction violates it
        assert gain_a == 0
        assert gain_b == 0
        assert gain_ab == 3
        assert gain_a + gain_b < gain_ab

    def test_gas_finds_the_joint_anchors_value(self):
        graph = paper_figure1_graph()
        result = gas(graph, 2)
        # greedy cannot see the joint effect of the two zero-gain anchors,
        # which is exactly why the problem is hard; the result must still be
        # a valid (possibly zero-gain) anchor set of size 2
        assert len(result.anchors) == 2
        assert result.gain >= 0


class TestGasOnTheRunningExample:
    def test_best_single_anchor(self, graph):
        result = gas(graph, 1)
        assert result.anchors == [(9, 10)]
        assert result.gain == 3

    def test_gain_distribution(self, graph):
        result = gas(graph, 1)
        assert result.gain_by_trussness == {3: 3}
