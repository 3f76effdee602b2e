"""Truss component tree (Section III-C, Algorithm 4 of the paper).

The tree organises every non-anchored edge of the graph into nodes:

* all edges of a node share the same trussness ``TN.K``;
* the edges in the subtree rooted at a node induce a (TN.K)-truss component
  (a maximal k-truss whose edges are pairwise triangle-connected);
* the node id ``TN.I`` is the smallest edge id contained in the node, which
  makes ids stable across rebuilds as long as the node's edge set does not
  change.

On top of the tree the *subtree adjacency* ``sla(e)`` is defined: the ids of
the nodes that contain a neighbour-edge of ``e`` with trussness at least
``t(e)``.  Lemma 4 states that the followers of an anchored edge are
contained in the union of its ``sla`` nodes, which is what makes per-node
caching of follower sets (GAS, Algorithm 6) possible.

Construction runs in the integer domain of the shared
:class:`~repro.graph.index.GraphIndex`: per trussness level, an integer
union-find over the precomputed triangle triples yields the components, and
one additional pass over the triples precomputes ``sla`` for *every* edge at
once (the GAS loop queries ``sla`` for each candidate in each round).  The
from-scratch oracle is :func:`repro.oracles.component_tree_reference`.

Since PR 3 the tree is also **incrementally maintainable**: after an
incrementally re-peeled commit, :meth:`TrussComponentTree.apply_commit`
patches only the nodes whose trussness levels were touched (departures,
arrivals, merges and ``sla`` updates along dirty paths — see
docs/ARCHITECTURE.md for the invariants) instead of rebuilding, and
returns the exact follower-reuse invalidation of that commit.  A tree can
also **journal** its patches (:meth:`TrussComponentTree.start_journal`) and
undo them with :meth:`TrussComponentTree.rollback`: the engine keeps one
baseline tree per session this way instead of rebuilding it per solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.graph.graph import Edge, normalize_edge
from repro.graph.index import GraphIndex
from repro.truss.state import TrussState
from repro.utils.errors import InvalidEdgeError, InvalidParameterError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import CommitDelta

#: ``node_of_eid`` sentinel for anchored edges (members of no tree node).
ANCHOR_NODE = -1
#: Transient ``node_of_eid`` sentinel used *during* :meth:`TrussComponentTree.apply_commit`
#: for followers that departed their old node but have not been re-inserted yet.
_PENDING_NODE = -2
#: Journal value of a dict slot that held no entry before it was patched.
_ABSENT = object()


@dataclass
class TreePatchInfo:
    """What one :meth:`TrussComponentTree.apply_commit` call invalidated.

    ``invalid_node_ids`` reproduces, for this single commit, exactly the node
    ids that the reuse rule (the oracle
    :func:`repro.oracles.compute_reuse_decision_reference`) flags when
    diffing the pre-patch tree against the post-patch tree (structurally
    touched nodes, the nodes hosting every trussness/layer-changed edge
    before and after, the anchor's old ``sla`` nodes and its old node).
    ``dirty_candidate_eids`` is the set of candidate edges whose cached
    follower entries can possibly have changed — the union of the changed
    edges, every edge whose ``sla`` set was modified by the patch, and every
    edge whose (post-patch) ``sla`` references an invalidated node.  Edges
    outside this set are guaranteed fully reusable, which is what lets the
    GAS candidate heap skip them without rescanning.
    """

    invalid_node_ids: Set[int] = field(default_factory=set)
    dirty_candidate_eids: Set[int] = field(default_factory=set)


@dataclass(slots=True)
class TreeNode:
    """One node of the truss component tree.

    Attributes map one-to-one onto the paper's notation (Table II):
    ``node_id`` is ``TN.I``, ``k`` is ``TN.K``, ``edge_ids`` is ``TN.E`` as
    dense edge ids of the state's index (``index.edge_of`` names them),
    ``parent`` is ``TN.P`` (as a node id) and ``children`` is ``TN.C``.
    """

    node_id: int
    k: int
    edge_ids: FrozenSet[int]
    parent: Optional[int] = None
    children: List[int] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.edge_ids)


class _TreeJournal:
    """First-touch values of the tree slots patched since the last rollback.

    :meth:`TrussComponentTree.apply_commit` and its helpers record a slot
    here the first time they are about to change it, and never again until
    the next :meth:`TrussComponentTree.rollback` writes the recorded values
    back.  Lists and sets are recorded as copies: the patch mutates them in
    place.  ``roots`` is derived, so it is invalidated instead of recorded.
    """

    __slots__ = ("nodes", "fields", "eids", "sla", "sla_ref", "state")

    def __init__(self) -> None:
        #: node id -> the node object under that key, or ``_ABSENT``
        self.nodes: Dict[int, object] = {}
        #: ``id(node)`` -> (node, node_id, parent, children copy, edge_ids)
        self.fields: Dict[int, tuple] = {}
        #: eid -> its ``node_of_eid`` value
        self.eids: Dict[int, int] = {}
        #: eid -> copy of its ``sla`` set (``None`` for no set)
        self.sla: Dict[int, Optional[Set[int]]] = {}
        #: node id -> copy of its reverse-``sla`` entry, or ``_ABSENT``
        self.sla_ref: Dict[int, object] = {}
        #: the tree's state before the first patch (``None``: nothing patched)
        self.state: Optional[TrussState] = None


class TrussComponentTree:
    """The truss component tree of a :class:`TrussState`.

    Built once per state with :meth:`build` (single union-find pass in the
    dense-id domain, ``sla`` precomputed for every edge) and — new in PR 3 —
    advanced **in place** across committed anchors with :meth:`apply_commit`,
    which touches only the nodes whose trussness levels changed.  Patched
    trees are asserted structurally identical to rebuilt ones by the
    test-suite.  A journalled tree (:meth:`start_journal`) records what its
    patches change and :meth:`rollback` restores it; the rolled-back tree
    is asserted identical to a fresh build.

    Membership lives in the dense-id domain only: ``node_of_eid`` maps each
    edge id to its node (:data:`ANCHOR_NODE` for anchors) and ``sla_sets``
    holds each edge id's ``sla`` set (``None`` for an empty one).
    :meth:`node_of`, :meth:`sla` and :meth:`subtree_edges` are the
    edge-tuple views, named through the state's index.
    """

    def __init__(
        self,
        nodes: Dict[int, TreeNode],
        state: TrussState,
        sla_sets: List[Optional[Set[int]]],
        node_of_eid: List[int],
    ) -> None:
        self.nodes = nodes
        self.state = state
        # Parentless node ids, derived on read (see :attr:`roots`).
        self._roots: Optional[List[int]] = None
        # Per-dense-edge-id sla sets (None for an empty one).
        self._sla_sets = sla_sets
        # Dense eid -> node id (ANCHOR_NODE for anchors).
        self._node_of_eid = node_of_eid
        # Reverse sla index (node id -> eids whose sla contains it), built
        # lazily on the first incremental patch / heap invalidation.
        self._sla_ref: Optional[Dict[int, Set[int]]] = None
        # Undo journal of the patches since the last rollback; None while
        # the tree is not journalled (see start_journal).
        self._journal: Optional[_TreeJournal] = None

    # ------------------------------------------------------------------
    # Construction (Algorithm 4)
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, state: TrussState) -> "TrussComponentTree":
        """Build the tree bottom-up over increasing trussness values.

        The construction is equivalent to the recursive BuildTree of the
        paper (one node per triangle-connected component of trussness-k
        edges, parent = enclosing component at the previous trussness value)
        but runs a *single* union-find over the triangle triples, processing
        trussness levels in decreasing order: a triangle becomes active at
        the minimum trussness of its three edges, so each triangle is
        unioned exactly once instead of once per level.  Parent links are
        recovered by keeping, per component, the list of nodes that have not
        been claimed by an enclosing node yet; the node created for a
        component claims them as children.
        """
        index, trussness_of, _layer_of, anchor_mask = state.kernel_views()
        m = index.num_edges
        stable_ids = index.stable_ids

        # Edges grouped by trussness; triangles grouped by the level at which
        # they become active (min trussness; all-anchor triangles are active
        # everywhere).  Both int keys; anchors hold inf in trussness_of.
        edges_by_level: Dict[int, List[int]] = {}
        for eid in range(m):
            t = trussness_of[eid]
            if t != math.inf:
                edges_by_level.setdefault(t, []).append(eid)
        tris_by_level: Dict[float, List[Tuple[int, int, int]]] = {}
        for triple in index.triangles:
            e1, e2, e3 = triple
            level = min(trussness_of[e1], trussness_of[e2], trussness_of[e3])
            tris_by_level.setdefault(level, []).append(triple)

        parent = list(range(m))

        def find(e: int) -> int:
            root = e
            while parent[root] != root:
                root = parent[root]
            while parent[e] != root:
                parent[e], e = root, parent[e]
            return root

        # Per union-find root: the nodes inside the component that still have
        # no parent (they will be claimed by the next enclosing node).
        orphans: Dict[int, List[int]] = {}

        def union(a: int, b: int) -> None:
            ra, rb = find(a), find(b)
            if ra == rb:
                return
            parent[rb] = ra
            merged = orphans.pop(rb, None)
            if merged:
                existing = orphans.get(ra)
                if existing:
                    existing.extend(merged)
                else:
                    orphans[ra] = merged

        # Triangles between three anchored edges connect components at every
        # level, so they are activated before the deepest level.
        for e1, e2, e3 in tris_by_level.pop(math.inf, ()):
            union(e1, e2)
            union(e1, e3)

        nodes: Dict[int, TreeNode] = {}
        node_of_eid = [ANCHOR_NODE] * m

        for k in sorted(edges_by_level, reverse=True):
            for e1, e2, e3 in tris_by_level.get(k, ()):
                union(e1, e2)
                union(e1, e3)

            components: Dict[int, List[int]] = {}
            for eid in edges_by_level[k]:
                components.setdefault(find(eid), []).append(eid)

            for root, level_ids in components.items():
                # level_ids is ascending (edges_by_level preserves eid order),
                # so the smallest public edge id is the first entry's.
                node_id = stable_ids[level_ids[0]]
                node = TreeNode(node_id=node_id, k=k, edge_ids=frozenset(level_ids))
                nodes[node_id] = node
                unclaimed = orphans.get(root)
                if unclaimed:
                    for child_id in unclaimed:
                        nodes[child_id].parent = node_id
                    node.children.extend(unclaimed)
                    unclaimed.clear()
                    unclaimed.append(node_id)
                else:
                    orphans[root] = [node_id]
                for eid in level_ids:
                    node_of_eid[eid] = node_id

        sla_sets = cls._precompute_sla(index, trussness_of, anchor_mask, node_of_eid)
        return cls(nodes=nodes, state=state, sla_sets=sla_sets, node_of_eid=node_of_eid)

    @staticmethod
    def _precompute_sla(
        index: GraphIndex,
        trussness_of: List[float],
        anchor_mask: bytearray,
        node_of_eid: List[int],
    ) -> List[Optional[Set[int]]]:
        """One pass over the triangle triples computing ``sla`` for all edges."""
        m = index.num_edges
        # Lazily allocated: edges outside any triangle (the majority on
        # sparse graphs) keep a shared None slot instead of an empty set.
        sla_sets: List[Optional[Set[int]]] = [None] * m

        def add(target: int, node_id: int) -> None:
            entry = sla_sets[target]
            if entry is None:
                sla_sets[target] = {node_id}
            else:
                entry.add(node_id)

        for e1, e2, e3 in index.triangles:
            t1, t2, t3 = trussness_of[e1], trussness_of[e2], trussness_of[e3]
            a1, a2, a3 = anchor_mask[e1], anchor_mask[e2], anchor_mask[e3]
            if not a1:
                n1 = node_of_eid[e1]
                if not a2 and t1 >= t2:
                    add(e2, n1)
                if not a3 and t1 >= t3:
                    add(e3, n1)
            if not a2:
                n2 = node_of_eid[e2]
                if not a1 and t2 >= t1:
                    add(e1, n2)
                if not a3 and t2 >= t3:
                    add(e3, n2)
            if not a3:
                n3 = node_of_eid[e3]
                if not a1 and t3 >= t1:
                    add(e1, n3)
                if not a2 and t3 >= t2:
                    add(e2, n3)
        return sla_sets

    # ------------------------------------------------------------------
    # Undo journal
    # ------------------------------------------------------------------
    def start_journal(self) -> None:
        """Record every later patch so that :meth:`rollback` can undo it.

        The engine journals its session's baseline tree: a solve patches it
        in place and the next :meth:`~repro.core.engine.SolverEngine.reset`
        rolls it back instead of rebuilding the tree.
        """
        if self._journal is None:
            self._journal = _TreeJournal()

    def rollback(self) -> None:
        """Undo every patch since :meth:`start_journal` or the last rollback.

        Writes back the first-touch value of every recorded slot, so the cost
        follows what the patches touched, never the size of the tree.  Every
        slot is recorded before it changes, so a patch that raised part-way
        is undone as completely as a finished one.  A no-op on a tree that
        is not journalled or has not been patched since.
        """
        journal = self._journal
        if journal is None or journal.state is None:
            return
        self._journal = _TreeJournal()
        self._restore_nodes(journal)
        self._restore_memberships(journal)
        self._restore_sla(journal)
        self.state = journal.state
        self._roots = None

    def _restore_nodes(self, journal: _TreeJournal) -> None:
        for node, node_id, parent, children, edge_ids in journal.fields.values():
            node.node_id = node_id
            node.parent = parent
            node.children = children
            node.edge_ids = edge_ids
        nodes = self.nodes
        for node_id, node in journal.nodes.items():
            if node is _ABSENT:
                nodes.pop(node_id, None)
            else:
                nodes[node_id] = node  # type: ignore[assignment]

    def _restore_memberships(self, journal: _TreeJournal) -> None:
        node_of_eid = self._node_of_eid
        for eid, node_id in journal.eids.items():
            node_of_eid[eid] = node_id

    def _restore_sla(self, journal: _TreeJournal) -> None:
        sla_sets = self._sla_sets
        for eid, entry in journal.sla.items():
            sla_sets[eid] = entry
        ref = self._sla_ref
        for node_id, refs in journal.sla_ref.items():
            assert ref is not None
            if refs is _ABSENT:
                ref.pop(node_id, None)
            else:
                ref[node_id] = refs  # type: ignore[assignment]

    # Recording helpers: each call precedes the mutation it covers; on an
    # unjournalled tree it returns after one attribute read.
    def _save_node(self, node: TreeNode) -> None:
        journal = self._journal
        if journal is not None and id(node) not in journal.fields:
            journal.fields[id(node)] = (
                node, node.node_id, node.parent, list(node.children), node.edge_ids,
            )

    def _save_key(self, node_id: int) -> None:
        journal = self._journal
        if journal is not None and node_id not in journal.nodes:
            journal.nodes[node_id] = self.nodes.get(node_id, _ABSENT)

    def _save_eids(self, eids: Iterable[int]) -> None:
        journal = self._journal
        if journal is None:
            return
        saved = journal.eids
        node_of_eid = self._node_of_eid
        for eid in eids:
            if eid not in saved:
                saved[eid] = node_of_eid[eid]

    def _save_sla(self, eids: Iterable[int]) -> None:
        journal = self._journal
        if journal is None:
            return
        saved = journal.sla
        sla_sets = self._sla_sets
        for eid in eids:
            if eid not in saved:
                entry = sla_sets[eid]
                saved[eid] = None if entry is None else set(entry)

    def _save_refs(self, node_ids: Iterable[int]) -> None:
        journal = self._journal
        if journal is None:
            return
        saved = journal.sla_ref
        ref = self._sla_ref
        assert ref is not None
        for node_id in node_ids:
            if node_id not in saved:
                refs = ref.get(node_id)
                saved[node_id] = _ABSENT if refs is None else set(refs)

    # ------------------------------------------------------------------
    # Incremental maintenance (the PR 3 tentpole)
    # ------------------------------------------------------------------
    def _ensure_sla_ref(self) -> Dict[int, Set[int]]:
        """Build (once) the reverse sla index: node id -> referencing eids."""
        ref = self._sla_ref
        if ref is None:
            ref = {}
            for eid, entry in enumerate(self._sla_sets):
                if entry:
                    for node_id in entry:
                        ref.setdefault(node_id, set()).add(eid)
            self._sla_ref = ref
        return ref

    def _attach(self, child_id: int, parent_id: Optional[int]) -> None:
        """Point ``child.parent`` at ``parent_id``, keeping children lists in sync."""
        node = self.nodes[child_id]
        old = node.parent
        if old == parent_id:
            return
        if old is not None:
            old_node = self.nodes.get(old)
            if old_node is not None and child_id in old_node.children:
                self._save_node(old_node)
                old_node.children.remove(child_id)
        self._save_node(node)
        node.parent = parent_id
        if parent_id is not None:
            parent = self.nodes[parent_id]
            if child_id not in parent.children:
                self._save_node(parent)
                parent.children.append(child_id)

    def _rekey_sla_refs(self, old_id: int, new_id: int, sla_dirty: Set[int]) -> None:
        """Swap ``old_id`` for ``new_id`` in every referencing ``sla`` set."""
        ref = self._ensure_sla_ref()
        self._save_refs((old_id,))
        refs = ref.pop(old_id, None)
        if not refs:
            return
        self._save_refs((new_id,))
        self._save_sla(refs)
        for eid in refs:
            entry = self._sla_sets[eid]
            if entry is not None:
                entry.discard(old_id)
                entry.add(new_id)
        sla_dirty |= refs
        existing = ref.get(new_id)
        if existing is not None:
            existing |= refs
        else:
            ref[new_id] = refs

    def _rename_node(
        self,
        old_id: int,
        new_id: int,
        touched: Set[int],
        sla_dirty: Set[int],
        forward: Dict[int, Optional[int]],
    ) -> None:
        """Re-key a node (its smallest member edge id changed)."""
        nodes = self.nodes
        self._save_key(old_id)
        self._save_key(new_id)
        node = nodes.pop(old_id)
        self._save_node(node)
        node.node_id = new_id
        nodes[new_id] = node
        forward[old_id] = new_id
        touched.add(old_id)
        touched.add(new_id)
        if node.parent is not None:
            parent = nodes[node.parent]
            self._save_node(parent)
            siblings = parent.children
            siblings[siblings.index(old_id)] = new_id
        for child_id in node.children:
            child = nodes[child_id]
            self._save_node(child)
            child.parent = new_id
        node_of_eid = self._node_of_eid
        self._save_eids(node.edge_ids)
        for eid in node.edge_ids:
            node_of_eid[eid] = new_id
        self._rekey_sla_refs(old_id, new_id, sla_dirty)

    def _merge_nodes(
        self,
        a_id: int,
        b_id: int,
        touched: Set[int],
        sla_dirty: Set[int],
        forward: Dict[int, Optional[int]],
    ) -> int:
        """Fuse two same-level nodes whose components became connected.

        The survivor keeps the smaller id (node ids are "smallest contained
        edge id", and memberships are disjoint, so the invariant is
        preserved).  Children are re-parented onto the survivor; the caller
        reconciles the two parent chains (see :meth:`_zip_chains`).
        """
        if a_id == b_id:
            return a_id
        keep_id, drop_id = (a_id, b_id) if a_id < b_id else (b_id, a_id)
        nodes = self.nodes
        keep = nodes[keep_id]
        self._save_key(drop_id)
        drop = nodes.pop(drop_id)
        forward[drop_id] = keep_id
        touched.add(keep_id)
        touched.add(drop_id)
        if drop.parent is not None:
            parent = nodes[drop.parent]
            if drop_id in parent.children:
                self._save_node(parent)
                parent.children.remove(drop_id)
        self._save_node(keep)
        keep.edge_ids |= drop.edge_ids
        for child_id in drop.children:
            child = nodes[child_id]
            self._save_node(child)
            child.parent = keep_id
        keep.children.extend(drop.children)
        node_of_eid = self._node_of_eid
        self._save_eids(drop.edge_ids)
        for eid in drop.edge_ids:
            node_of_eid[eid] = keep_id
        self._rekey_sla_refs(drop_id, keep_id, sla_dirty)
        return keep_id

    def _zip_chains(
        self,
        child_id: int,
        a_id: Optional[int],
        b_id: Optional[int],
        touched: Set[int],
        sla_dirty: Set[int],
        forward: Dict[int, Optional[int]],
    ) -> None:
        """Merge two ancestor chains that now enclose the same component.

        ``child_id``'s component became connected (at ``child``'s level) to a
        component whose ancestor chain starts at ``b_id`` while its own chain
        starts at ``a_id``; connectivity at a level implies connectivity at
        every lower level, so the two chains must interleave into one.  Nodes
        at equal levels merge; the walk descends strictly in level and
        terminates at a shared ancestor or the roots.
        """
        nodes = self.nodes
        while True:
            if a_id == b_id:
                self._attach(child_id, a_id)
                return
            if a_id is None:
                self._attach(child_id, b_id)
                return
            if b_id is None:
                self._attach(child_id, a_id)
                return
            a, b = nodes[a_id], nodes[b_id]
            if a.k == b.k:
                next_a, next_b = a.parent, b.parent
                merged = self._merge_nodes(a_id, b_id, touched, sla_dirty, forward)
                # The merged node's parent slot is reconciled by the next
                # loop iteration (it zips next_a against next_b).
                self._attach(child_id, merged)
                child_id, a_id, b_id = merged, next_a, next_b
            elif a.k > b.k:
                self._attach(child_id, a_id)
                child_id, a_id = a_id, a.parent
            else:
                self._attach(child_id, b_id)
                child_id, b_id = b_id, b.parent

    def _merge_level_tops(
        self,
        level_tops: List[int],
        touched: Set[int],
        sla_dirty: Set[int],
        forward: Dict[int, Optional[int]],
    ) -> int:
        """Fuse the level-`k` top nodes of newly-connected components into
        one, reconciling their parent chains; returns the survivor's id."""
        target = level_tops[0]
        for other in level_tops[1:]:
            next_a, next_b = self.nodes[target].parent, self.nodes[other].parent
            target = self._merge_nodes(target, other, touched, sla_dirty, forward)
            self._zip_chains(target, next_a, next_b, touched, sla_dirty, forward)
        return target

    def _absorb_higher_tops(
        self,
        target: int,
        higher_tops: List[int],
        touched: Set[int],
        sla_dirty: Set[int],
        forward: Dict[int, Optional[int]],
    ) -> None:
        """Hang higher-level top nodes below ``target`` (their components
        joined ``target``'s), folding each one's old parent chain in."""
        nodes = self.nodes
        for top in higher_tops:
            if top not in nodes:  # pragma: no cover - merged away above
                continue
            old_parent = nodes[top].parent
            if old_parent == target:
                continue
            self._attach(top, target)
            self._zip_chains(
                target, nodes[target].parent, old_parent,
                touched, sla_dirty, forward,
            )

    def _top_at(self, eid: int, level: int) -> int:
        """Topmost ancestor (node id) of ``eid``'s node with ``k >= level``."""
        nodes = self.nodes
        nid = self._node_of_eid[eid]
        while True:
            parent = nodes[nid].parent
            if parent is None or nodes[parent].k < level:
                return nid
            nid = parent

    def _collect_tops(
        self,
        seed_eid: int,
        level: int,
        new_truss: List[float],
        new_mask: bytearray,
        index: GraphIndex,
    ) -> Set[int]:
        """Node ids of every ``{t >= level}`` component triangle-reachable
        from ``seed_eid``, walking *through* anchored edges (anchors are
        present at every level and act as connectivity conduits).

        A triangle counts iff its two other edges are each anchored or have
        (new) trussness at least ``level``.  Followers of the current patch
        that have not been re-inserted yet (``_PENDING_NODE``) are skipped —
        their own insertion discovers the same triangles later, so the final
        connectivity is complete once the whole batch is processed.
        """
        tri = index.edge_triangles
        node_of_eid = self._node_of_eid
        tops: Set[int] = set()
        seen_anchors: Set[int] = {seed_eid}
        stack: List[int] = [seed_eid]
        while stack:
            current = stack.pop()
            for a, b in tri[current]:
                if new_truss[a] < level or new_truss[b] < level:
                    continue
                for partner in (a, b):
                    if new_mask[partner]:
                        if partner not in seen_anchors:
                            seen_anchors.add(partner)
                            stack.append(partner)
                    else:
                        nid = node_of_eid[partner]
                        if nid != _PENDING_NODE:
                            tops.add(self._top_at(partner, level))
        return tops

    def _resolve_live(
        self, nid: Optional[int], forward: Dict[int, Optional[int]]
    ) -> Optional[int]:
        """Follow the rename/merge/delete forwarding chain to a live node id."""
        while nid is not None and nid not in self.nodes:
            nid = forward[nid]
        return nid

    def _recompute_sla_of(
        self,
        eid: int,
        new_truss: List[float],
        new_mask: bytearray,
        index: GraphIndex,
        sla_dirty: Set[int],
    ) -> None:
        """Recompute ``sla(eid)`` from scratch and sync the reverse index."""
        node_of_eid = self._node_of_eid
        threshold = new_truss[eid]
        fresh: Set[int] = set()
        for a, b in index.edge_triangles[eid]:
            for neighbour in (a, b):
                if not new_mask[neighbour] and new_truss[neighbour] >= threshold:
                    fresh.add(node_of_eid[neighbour])
        old = self._sla_sets[eid] or set()
        if fresh == old:
            return
        ref = self._ensure_sla_ref()
        removed = old - fresh
        added = fresh - old
        self._save_refs(removed)
        self._save_refs(added)
        self._save_sla((eid,))
        for node_id in removed:
            refs = ref.get(node_id)
            if refs is not None:
                refs.discard(eid)
        for node_id in added:
            ref.setdefault(node_id, set()).add(eid)
        self._sla_sets[eid] = fresh if fresh else None
        sla_dirty.add(eid)

    def apply_commit(self, delta: "CommitDelta", new_state: TrussState) -> TreePatchInfo:
        """Patch the tree **in place** for one incrementally re-peeled anchor.

        ``delta`` is the :class:`~repro.core.engine.CommitDelta` recorded by
        the engine's incremental re-peel (the anchor, its exact followers and
        every edge whose trussness or layer changed); ``new_state`` is the
        state *after* the commit.  Only nodes whose trussness levels were
        touched are modified:

        * the anchor and every follower *depart* their old node (nodes may
          shrink, rename — ids are "smallest member edge id" — or disappear,
          splicing their children onto the parent);
        * followers *arrive* at their new level, merging any ``{t >= k+1}``
          components they now bridge (processed in descending level order so
          higher arrivals are already placed);
        * the anchor's new permanent presence can connect components at any
          level up to the trussness of its triangle partners — those merges
          walk triangle-adjacency *through* anchors (anchors are conduits)
          and reconcile the ancestor chains (:meth:`_zip_chains`);
        * ``sla`` is recomputed only for the edges in triangles of the
          anchor / followers, plus bulk id swaps for renamed or merged nodes
          via the reverse sla index.

        Trussness can only grow under anchoring, so components never split —
        a node's *edge set* may split across two levels (followers move up),
        but the remaining members always stay one node.  The returned
        :class:`TreePatchInfo` carries the exact invalidation the reuse rule
        (Algorithm 5) would compute from a full before/after tree diff; the
        test-suite asserts the equivalence against
        :func:`repro.oracles.compute_reuse_decision_reference` on randomized
        graphs.
        """
        index, new_truss, _new_layer, new_mask = new_state.kernel_views()
        nodes = self.nodes
        node_of_eid = self._node_of_eid
        stable_ids = index.stable_ids
        anchor_eid = delta.anchor_eid
        followers = delta.follower_eids

        touched: Set[int] = set()
        sla_dirty: Set[int] = set()
        forward: Dict[int, Optional[int]] = {}
        self._ensure_sla_ref()
        journal = self._journal
        if journal is not None and journal.state is None:
            journal.state = self.state

        # -- captures (everything the reuse decision reads from the OLD tree)
        old_node_ids = set(nodes)
        old_sla_anchor = set(self._sla_sets[anchor_eid] or ())
        changed_nodes: Set[int] = set()
        for eid in delta.changed_eids:
            nid = node_of_eid[eid]
            if nid >= 0:
                changed_nodes.add(nid)

        # -- phase 1: departures (the anchor for good, followers temporarily)
        departures: Dict[int, List[int]] = {}
        departures.setdefault(node_of_eid[anchor_eid], []).append(anchor_eid)
        departed_from: Dict[int, int] = {}
        for f in followers:
            nid = node_of_eid[f]
            departed_from[f] = nid
            departures.setdefault(nid, []).append(f)
        for nid, leaving in departures.items():
            node = nodes[nid]
            touched.add(nid)
            remaining = node.edge_ids - frozenset(leaving)
            self._save_eids(leaving)
            for eid in leaving:
                node_of_eid[eid] = _PENDING_NODE
            if not remaining:
                parent_id = node.parent
                self._save_key(nid)
                del nodes[nid]
                forward[nid] = parent_id
                if parent_id is not None:
                    parent = nodes[parent_id]
                    self._save_node(parent)
                    parent.children.remove(nid)
                    parent.children.extend(node.children)
                for child_id in node.children:
                    child = nodes[child_id]
                    self._save_node(child)
                    child.parent = parent_id
                self._save_refs((nid,))
                refs = self._sla_ref.pop(nid, None)  # type: ignore[union-attr]
                if refs:
                    self._save_sla(refs)
                    for eid in refs:
                        entry = self._sla_sets[eid]
                        if entry is not None:
                            entry.discard(nid)
                    sla_dirty |= refs
            else:
                self._save_node(node)
                node.edge_ids = remaining
                new_id = stable_ids[min(remaining)]
                if new_id != nid:
                    self._rename_node(nid, new_id, touched, sla_dirty, forward)
        node_of_eid[anchor_eid] = ANCHOR_NODE

        # -- phase 2: follower arrivals, descending new trussness level
        arrivals_by_level: Dict[int, List[int]] = {}
        for f in followers:
            arrivals_by_level.setdefault(int(new_truss[f]), []).append(f)
        for level in sorted(arrivals_by_level, reverse=True):
            for f in sorted(arrivals_by_level[level]):
                tops = self._collect_tops(f, level, new_truss, new_mask, index)
                level_tops = sorted(t for t in tops if nodes[t].k == level)
                higher_tops = sorted(t for t in tops if nodes[t].k > level)
                if level_tops:
                    target = self._merge_level_tops(
                        level_tops, touched, sla_dirty, forward
                    )
                    node = nodes[target]
                    touched.add(target)
                    self._save_node(node)
                    node.edge_ids |= frozenset((f,))
                    node_of_eid[f] = target
                    new_id = stable_ids[f]
                    if new_id < target:
                        self._rename_node(target, new_id, touched, sla_dirty, forward)
                        target = new_id
                else:
                    # Parent base: the surviving enclosure of f's old node.
                    # Resolve BEFORE inserting the new node (the new id may
                    # coincide with the departed node's id), and walk up past
                    # any node at the arrival level or above (id reuse by a
                    # sibling follower that already re-arrived).
                    base = self._resolve_live(departed_from[f], forward)
                    while base is not None and nodes[base].k >= level:
                        base = nodes[base].parent
                    target = stable_ids[f]
                    self._save_key(target)
                    nodes[target] = TreeNode(
                        node_id=target, k=level, edge_ids=frozenset((f,))
                    )
                    touched.add(target)
                    node_of_eid[f] = target
                    self._zip_chains(target, None, base, touched, sla_dirty, forward)
                self._absorb_higher_tops(target, higher_tops, touched, sla_dirty, forward)

        # -- phase 3: connections closed by the anchor's permanent presence.
        # The anchor may bridge components at every level up to the trussness
        # of its triangle partners, including through chains of other anchors
        # (an "anchor web").  Gather the candidate levels from the triangles
        # of the whole reachable web, then merge the reachable components per
        # level in descending order (higher merges subsume lower ones).
        tri = index.edge_triangles
        web: Set[int] = {anchor_eid}
        stack = [anchor_eid]
        candidate_levels: Set[int] = set()
        while stack:
            current = stack.pop()
            for a, b in tri[current]:
                level = min(new_truss[a], new_truss[b])
                if level != math.inf:
                    candidate_levels.add(int(level))
                for partner in (a, b):
                    if new_mask[partner] and partner not in web:
                        web.add(partner)
                        stack.append(partner)
        for level in sorted(candidate_levels, reverse=True):
            tops = sorted(self._collect_tops(anchor_eid, level, new_truss, new_mask, index))
            if len(tops) < 2:
                continue
            level_tops = [t for t in tops if nodes[t].k == level]
            higher_tops = [t for t in tops if nodes[t].k > level]
            if level_tops:
                target = self._merge_level_tops(level_tops, touched, sla_dirty, forward)
                self._absorb_higher_tops(target, higher_tops, touched, sla_dirty, forward)
            else:
                base = higher_tops[0]
                for other in higher_tops[1:]:
                    if base not in nodes or other not in nodes:  # pragma: no cover
                        continue
                    self._zip_chains(
                        other, nodes[other].parent, nodes[base].parent,
                        touched, sla_dirty, forward,
                    )

        # -- phase 4: sla recomputation for the locally affected edges
        local: Set[int] = set(followers)
        for seed in (anchor_eid, *followers):
            for a, b in tri[seed]:
                local.add(a)
                local.add(b)
        for eid in sorted(local):
            if not new_mask[eid]:
                self._recompute_sla_of(eid, new_truss, new_mask, index, sla_dirty)
        if old_sla_anchor:
            ref = self._ensure_sla_ref()
            self._save_refs(old_sla_anchor)
            for node_id in old_sla_anchor:
                refs = ref.get(node_id)
                if refs is not None:
                    refs.discard(anchor_eid)
        self._save_sla((anchor_eid,))
        self._sla_sets[anchor_eid] = None

        # -- phase 5: derived structures (roots re-derive on their next read)
        self._roots = None
        self.state = new_state

        for eid in delta.changed_eids:
            nid = node_of_eid[eid]
            if nid >= 0:
                changed_nodes.add(nid)
        # Renames and merges can route through a transient id that exists in
        # neither the old nor the new tree; no cache entry can reference it,
        # and the before/after diff never reports it — drop those so the
        # patch-assembled decision stays byte-identical to the diff.
        invalid_node_ids = {
            nid
            for nid in touched | changed_nodes | old_sla_anchor
            if nid in nodes or nid in old_node_ids
        }
        ref = self._ensure_sla_ref()
        dirty = set(delta.changed_eids)
        dirty |= sla_dirty
        for node_id in invalid_node_ids:
            refs = ref.get(node_id)
            if refs:
                dirty |= refs
        return TreePatchInfo(
            invalid_node_ids=invalid_node_ids,
            dirty_candidate_eids=dirty,
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def node_of(self, edge: Edge) -> TreeNode:
        """The tree node containing ``edge`` (``T[e]`` in the paper).

        Raises :class:`InvalidEdgeError` for an edge of no node: one that is
        not in the graph, or an anchor.
        """
        edge = normalize_edge(*edge)
        eid = self.state.index.eid_of.get(edge)
        if eid is None or self._node_of_eid[eid] < 0:
            raise InvalidEdgeError(edge, f"edge {edge!r} is not assigned to any tree node")
        return self.nodes[self._node_of_eid[eid]]

    def subtree_node_ids(self, node_id: int) -> List[int]:
        """Ids of the subtree rooted at ``node_id`` (pre-order)."""
        if node_id not in self.nodes:
            raise InvalidParameterError(f"unknown tree node id {node_id}")
        order: List[int] = []
        stack = [node_id]
        while stack:
            current = stack.pop()
            order.append(current)
            stack.extend(self.nodes[current].children)
        return order

    def subtree_edges(self, node_id: int) -> Set[Edge]:
        """All edges in the subtree rooted at ``node_id``.

        By construction these induce a (TN.K)-truss component of the graph.
        """
        edge_of = self.state.index.edge_of
        edges: Set[Edge] = set()
        for nid in self.subtree_node_ids(node_id):
            edges.update(map(edge_of.__getitem__, self.nodes[nid].edge_ids))
        return edges

    def sla(self, edge: Edge) -> Set[int]:
        """Subtree adjacency node ids of ``edge`` (Table II).

        ``id ∈ sla(e)`` iff some neighbour-edge ``e'`` of ``e`` has
        ``t(e') >= t(e)`` and lives in the node with that id; an anchored
        edge's set is empty.  An O(1) lookup of :attr:`sla_sets`; treat the
        returned set as read-only.
        """
        edge = self.state.graph.require_edge(edge)
        entry = self._sla_sets[self.state.index.eid_of[edge]]
        return entry if entry is not None else set()

    @property
    def roots(self) -> List[int]:
        """Ids of the parentless nodes (treat as read-only).

        Derived from :attr:`nodes` on the first read after a build, patch or
        rollback and cached until the next one, so a patch never rescans
        every node.
        """
        roots = self._roots
        if roots is None:
            roots = self._roots = [
                node_id for node_id, node in self.nodes.items() if node.parent is None
            ]
        return roots

    @property
    def node_of_eid(self) -> List[int]:
        """Dense eid -> node id list (:data:`ANCHOR_NODE`, ``-1``, for
        anchored edges).  Treat as read-only."""
        return self._node_of_eid

    @property
    def sla_sets(self) -> List[Optional[Set[int]]]:
        """Per-eid ``sla`` sets (``None`` entries for empty ones).  Treat as
        read-only; :meth:`sla` is the per-edge public view."""
        return self._sla_sets

    # ------------------------------------------------------------------
    # Introspection helpers (used by tests and the reuse statistics)
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Length of the longest root-to-leaf path (number of nodes)."""
        best = 0
        for root in self.roots:
            stack = [(root, 1)]
            while stack:
                node_id, depth = stack.pop()
                best = max(best, depth)
                for child in self.nodes[node_id].children:
                    stack.append((child, depth + 1))
        return best

    def __len__(self) -> int:
        return len(self.nodes)

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"TrussComponentTree(nodes={len(self.nodes)}, roots={len(self.roots)})"
