"""Follower-reuse bookkeeping between greedy rounds (Algorithm 5 / Lemma 5).

After an anchor is committed, most of the per-edge follower sets computed in
the previous round are still valid: trussness changes are confined to the
anchor's followers, and follower sets are cached *per tree node*
(``F[e][id]``).  This module decides which cached entries survive.

The invalidation rule is the paper's Algorithm 5 extended conservatively
(DESIGN.md §3.3): a cached entry ``F[e][id]`` is kept only when

* the node ``id`` exists before and after the anchoring with an identical
  edge set and identical per-edge trussness / layer values,
* ``id`` is not in ``sla(x)`` of the committed anchor ``x`` (the anchor's
  infinite support may enable new followers in any adjacent node, even one
  whose own edges did not move), and
* the trussness and layer of ``e`` itself did not change.

The conservative rule can only invalidate *more* entries than the paper's
rule, so GAS remains exactly equivalent to BASE+; the reuse-rate experiment
(Fig. 10) shows that the overwhelming majority of entries is still reused.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Set

from repro.core.component_tree import TrussComponentTree
from repro.graph.graph import Edge


@dataclass
class ReuseDecision:
    """Outcome of the invalidation analysis for one committed anchor."""

    #: Node ids whose cached follower entries must be recomputed.
    invalid_node_ids: Set[int] = field(default_factory=set)
    #: Edges whose whole cache entry must be dropped (their own t/l changed).
    invalid_edges: Set[Edge] = field(default_factory=set)

    def is_node_valid(self, node_id: int) -> bool:
        return node_id not in self.invalid_node_ids


@dataclass
class ReuseInvalidation:
    """A :class:`ReuseDecision` plus the candidate edges it can affect.

    Produced by :meth:`repro.core.engine.SolverEngine.take_reuse_decision`
    after a committed anchor.  ``dirty_eids`` — when not ``None`` — is an
    exact superset of the dense edge ids whose cached follower entries (or
    reuse classification) can differ from the previous round; every other
    candidate is guaranteed fully reusable with an unchanged gain, so the
    GAS candidate heap re-examines only the dirty ones.  ``dirty_eids is
    None`` means the information is unavailable (the tree was rebuilt from
    scratch, e.g. after a full-peel fallback) and every candidate must be
    re-examined, with ``decision`` still exact.
    """

    decision: ReuseDecision
    dirty_eids: Optional[Set[int]] = None


@dataclass
class ReuseStats:
    """Per-round reuse statistics (the FR / PR / NR split of Fig. 10)."""

    fully_reusable: int = 0
    partially_reusable: int = 0
    non_reusable: int = 0

    @property
    def total(self) -> int:
        return self.fully_reusable + self.partially_reusable + self.non_reusable

    def fractions(self) -> Dict[str, float]:
        total = max(1, self.total)
        return {
            "FR": self.fully_reusable / total,
            "PR": self.partially_reusable / total,
            "NR": self.non_reusable / total,
        }


def compute_reuse_decision(
    old_tree: TrussComponentTree,
    new_tree: TrussComponentTree,
    committed_anchor: Edge,
    committed_followers: Set[Edge],
) -> ReuseDecision:
    """Decide which cached follower entries survive the committed anchoring.

    Parameters
    ----------
    old_tree / new_tree:
        The truss component trees before and after the anchor was committed
        (both carry their own :class:`TrussState`).
    committed_anchor:
        The edge that was just anchored.
    committed_followers:
        Its follower set (their trussness rose by one).
    """
    decision = ReuseDecision()
    invalid_node_ids = decision.invalid_node_ids
    invalid_edges = decision.invalid_edges
    old_state = old_tree.state
    new_state = new_tree.state

    old_index, old_t_arr, old_l_arr, old_anchor = old_state.kernel_views()
    new_index, new_t_arr, new_l_arr, _new_anchor = new_state.kernel_views()
    old_node_of_eid = old_tree.node_of_eid
    new_node_of_eid = new_tree.node_of_eid
    fast = (
        old_index is new_index
        and old_node_of_eid is not None
        and new_node_of_eid is not None
    )

    if fast:
        # Steps 1 + 4 fused in the dense-id domain.  An old node's signature
        # (edge membership plus per-edge t/l) differs from the new node of
        # the same id exactly when the edge-id sets differ or some member
        # edge's (t, l) changed — so one array scan for changed edges plus a
        # per-node membership comparison reproduces the tuple-signature
        # comparison below without materialising any signatures.
        edge_of = old_index.edge_of
        for eid in range(old_index.num_edges):
            if old_anchor[eid]:
                continue
            if new_t_arr[eid] != old_t_arr[eid] or new_l_arr[eid] != old_l_arr[eid]:
                # 4. Edges whose own t/l changed cannot reuse anything: their
                #    candidate generation (Lemma 2 cond (i)) depends on t/l.
                invalid_edges.add(edge_of[eid])
                invalid_node_ids.add(old_node_of_eid[eid])
                new_node = new_node_of_eid[eid]
                if new_node >= 0:  # the edge may be the new anchor
                    invalid_node_ids.add(new_node)
        old_nodes = old_tree.nodes
        new_nodes = new_tree.nodes
        for node_id, node in old_nodes.items():
            new_node = new_nodes.get(node_id)
            if new_node is None or new_node.edge_ids != node.edge_ids:
                invalid_node_ids.add(node_id)
        for node_id in new_nodes:
            if node_id not in old_nodes:
                invalid_node_ids.add(node_id)
    else:  # pragma: no cover - reference-built trees / distinct snapshots
        # 1. Nodes that changed membership, trussness or layers — or
        #    disappeared or newly appeared — are invalid.
        old_signatures = old_tree.signatures()
        new_signatures = new_tree.signatures()
        for node_id, signature in old_signatures.items():
            if new_signatures.get(node_id) != signature:
                invalid_node_ids.add(node_id)
        for node_id in new_signatures:
            if node_id not in old_signatures:
                invalid_node_ids.add(node_id)
        # 4. Edges whose own trussness or layer changed.
        old_layer = old_state.decomposition.layer
        new_trussness = new_state.decomposition.trussness
        new_layer = new_state.decomposition.layer
        for edge, old_t in old_state.decomposition.trussness.items():
            new_t = new_trussness.get(edge)
            if new_t is None:
                # The edge is anchored in the new state (it has no trussness).
                invalid_edges.add(edge)
            elif new_t != old_t or new_layer[edge] != old_layer[edge]:
                invalid_edges.add(edge)

    # 2. Every node adjacent to the committed anchor with trussness at least
    #    t(x) may now host followers it could not host before (the anchor's
    #    support became infinite), so it is invalidated in both trees.
    invalid_node_ids |= old_tree.sla(committed_anchor)
    if not new_state.is_anchor(committed_anchor):  # pragma: no cover - defensive
        invalid_node_ids |= new_tree.sla(committed_anchor)
    if committed_anchor in old_tree.node_of_edge:
        invalid_node_ids.add(old_tree.node_of_edge[committed_anchor])

    # 3. Nodes that hosted the followers before, and nodes hosting them now.
    for follower in committed_followers:
        if follower in old_tree.node_of_edge:
            invalid_node_ids.add(old_tree.node_of_edge[follower])
        if follower in new_tree.node_of_edge:
            invalid_node_ids.add(new_tree.node_of_edge[follower])

    return decision


def classify_reuse(
    cached_ids: Set[int],
    decision: ReuseDecision,
    edge: Edge,
) -> str:
    """Classify one edge's cache entry as "FR", "PR" or "NR" (Fig. 10).

    ``cached_ids`` is only read (membership tests), so callers may pass a
    shared set without copying.
    """
    if edge in decision.invalid_edges or not cached_ids:
        return "NR"
    invalid_node_ids = decision.invalid_node_ids
    invalid = sum(1 for node_id in cached_ids if node_id in invalid_node_ids)
    if not invalid:
        return "FR"
    if invalid == len(cached_ids):
        return "NR"
    return "PR"
