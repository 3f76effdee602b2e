"""Quickstart: anchor edges on the paper's running example.

Run with::

    python examples/quickstart.py

The script builds the small graph of Fig. 3 of the paper, inspects its truss
structure, computes the followers of the anchor edge used in Example 4, and
finally runs GAS with a budget of 2 anchors.
"""

from __future__ import annotations

from repro import compute_followers, gas
from repro.core.component_tree import TrussComponentTree
from repro.graph import paper_figure3_graph
from repro.truss import TrussState


def main() -> None:
    graph = paper_figure3_graph()
    print(f"Running example graph: {graph.num_vertices} vertices, {graph.num_edges} edges")

    # 1. Truss decomposition: trussness and peeling layer of every edge.
    state = TrussState.compute(graph)
    print("\nTrussness of a few edges:")
    for edge in [(9, 10), (8, 9), (1, 2), (3, 4)]:
        print(f"  t{edge} = {state.trussness(edge)}  (layer {state.layer(edge)})")

    # 2. Followers of a single anchor (Example 4 of the paper).
    anchor = (9, 10)
    followers = compute_followers(state, anchor)
    print(f"\nAnchoring {anchor} lifts {len(followers)} edges by one trussness level:")
    for edge in sorted(followers):
        print(f"  {edge}: {state.trussness(edge)} -> {state.trussness(edge) + 1}")

    # 3. The truss component tree that GAS uses to reuse results.
    tree = TrussComponentTree.build(state)
    print(f"\nTruss component tree: {len(tree)} nodes")
    for node_id, node in sorted(tree.nodes.items()):
        print(f"  node {node_id}: k={node.k}, {len(node)} edges, parent={node.parent}")

    # 4. Full GAS run with a budget of two anchor edges.
    result = gas(graph, budget=2)
    print(f"\n{result.summary()}")
    print(f"  anchors:            {result.anchors}")
    print(f"  gain per trussness: {result.gain_by_trussness}")


if __name__ == "__main__":
    main()
