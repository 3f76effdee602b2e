"""GAS — the paper's full algorithm (Algorithm 6).

GAS runs the same greedy framework as BASE+ but avoids recomputing follower
sets from scratch in every round:

1. follower sets are cached *per (candidate edge, tree node)* — ``F[e][id]``
   in the paper's notation;
2. after an anchor is committed, the engine patches the truss component
   tree and the reuse rule of :mod:`repro.core.reuse` decides which cached
   entries are still valid;
3. in the next round only the invalidated entries are recomputed, and the
   recomputation is restricted to the affected tree nodes (the
   ``candidate_nodes`` argument of the follower search: a membership test
   on the tree's ``node_of_eid``, equivalent to filtering by the union of
   those nodes' edge sets without ever building it).

Because the reuse rule is conservative, GAS selects exactly the same anchors
as BASE+ and BASE (under the shared smallest-edge-id tie-breaking); the
test-suite verifies this equivalence.

Candidate selection: heap vs scan
---------------------------------
Historically every round re-scanned *all* candidate edges to find the best
gain, even though the reuse rule proves that most cached gains are
unchanged.  The default ``candidates="heap"`` strategy replaces the scan
with a **lazily-invalidated max-heap** keyed by the cached gains:

* a commit yields (via :meth:`SolverEngine.take_reuse_decision`) the exact
  set of *dirty* candidates — the edges inside the re-peel's dirty closure,
  the edges whose ``sla`` sets the tree patch touched, and the edges whose
  ``sla`` references an invalidated node; only those are refreshed and
  re-pushed;
* every other candidate's cached gain is provably unchanged, so its heap
  entry is still valid; stale entries (superseded scores) are discarded
  lazily at pop time;
* ties break exactly like the scan: the heap key is ``(-gain, eid)``, so
  the smallest edge id among the maximal gains wins.

``candidates="scan"`` forces the previous full-scan behaviour (the
full-scan oracle); both strategies share the per-candidate refresh helper, so
anchors, gains, reuse statistics and recompute counts are byte-identical —
asserted by the test-suite on randomized anchored graphs.

The public :func:`gas` is a thin wrapper over the solver registry: the round
loop runs against a :class:`~repro.core.engine.SolverEngine`, which owns the
state (advanced by incremental re-peeling after each committed anchor), the
component tree and the follower caches.  The equivalence suite pins its
anchors and gains to :func:`repro.oracles.base_greedy_reference` (Lemma 1).
"""

from __future__ import annotations

import heapq
import time
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.api.spec import SolveSpec
from repro.core.component_tree import TrussComponentTree
from repro.core.engine import FollowerEntry, SolverEngine, register_solver
from repro.core.followers import FollowerMethod, compute_followers
from repro.core.params import choice_param, method_param
from repro.core.result import AnchorResult, evaluate_anchor_set
from repro.core.reuse import (
    ReuseDecision,
    ReuseInvalidation,
    ReuseStats,
    classify_reuse,
)
from repro.graph.graph import Edge, Graph
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError

#: Shared empty sla set for edges that close no triangle.
_EMPTY_SLA: FrozenSet[int] = frozenset()

#: Shared empty follower bucket of a candidate without a starter.
_NO_FOLLOWERS: FrozenSet[Edge] = frozenset()


def _validate(graph: Graph, budget: int, method: FollowerMethod) -> FollowerMethod:
    if budget < 0:
        raise InvalidParameterError("budget must be non-negative")
    if budget > graph.num_edges:
        raise InvalidParameterError(
            f"budget {budget} exceeds the number of edges {graph.num_edges}"
        )
    if method is FollowerMethod.RECOMPUTE:
        raise InvalidParameterError(
            "GAS requires a local follower method ('support-check' or 'peel')"
        )
    return method


def _refresh_entry(
    state: TrussState,
    tree: TrussComponentTree,
    cache: List[Optional[FollowerEntry]],
    totals: List[Optional[int]],
    key_sets: Dict[FrozenSet[int], FrozenSet[int]],
    method: FollowerMethod,
    starters: Optional[bytearray],
    decision: Optional[ReuseDecision],
    eid: int,
    edge: Edge,
    sla_ids,
    stats: ReuseStats,
) -> bool:
    """Refresh one candidate's cached follower entry ``F[edge][*]``.

    This is the per-candidate body shared by the full scan and the heap
    strategy — keeping it in one place is what makes the two strategies
    byte-identical (entries, totals, reuse classification and recompute
    accounting all come from here).  Returns ``True`` when followers were
    actually recomputed (the ``recomputed_entries_per_round`` metric).

    ``starters`` holds the state's starter flags
    (:meth:`~repro.truss.state.TrussState.starter_flags`) when ``method``
    is ``support-check``, and is ``None`` for ``peel``.  A candidate
    without a starter has no follower in any scope, so its needed nodes get
    the empty set without a search, exactly what the search would have
    returned.

    An entry's keys are the tree nodes of its ``sla`` set.  An entry with
    no follower is stored as that key set alone, a frozenset interned in
    ``key_sets``; only an entry with a follower keeps its node -> bucket
    dict, empty buckets included.  Both kinds read the same way (iteration
    and ``in`` give the keys), and a refresh that changes an entry stores a
    new one of the kind its followers need, so entries restored from the
    baseline snapshot (shared, read-only) are never edited.
    """
    entry = cache[eid]
    if decision is None or entry is None or eid in decision.invalid_eids:
        entry = None
        needed = sla_ids
        if decision is not None:
            stats.non_reusable += 1
    else:
        invalid_node_ids = decision.invalid_node_ids
        needed = {
            node_id
            for node_id in sla_ids
            if node_id not in entry or node_id in invalid_node_ids
        }
        category = classify_reuse(sla_ids, decision, eid)
        if category == "FR" and not needed:
            stats.fully_reusable += 1
        elif needed and len(needed) != len(sla_ids):
            stats.partially_reusable += 1
        elif needed:
            stats.non_reusable += 1
        else:
            stats.fully_reusable += 1
        if not needed and len(entry) == len(sla_ids):
            # Every sla node is a valid key and no key is stale.
            return False

    # The refreshed entry's keys are exactly ``sla_ids``: needed nodes get
    # fresh buckets, the others keep theirs, stale keys are dropped.
    found: Dict[int, FrozenSet[Edge]] = {}
    if needed and (starters is None or starters[eid]):
        followers = compute_followers(
            state, edge, method=method, candidate_nodes=(tree.node_of_eid, needed)
        )
        node_of_eid = tree.node_of_eid
        eid_of = state.index.eid_of
        buckets: Dict[int, Set[Edge]] = {}
        for follower in followers:
            buckets.setdefault(node_of_eid[eid_of[follower]], set()).add(follower)
        for node_id, bucket in buckets.items():
            found[node_id] = frozenset(bucket)
    if entry is not None and type(entry) is not frozenset:
        for node_id, bucket in entry.items():
            if bucket and node_id in sla_ids and node_id not in needed:
                found[node_id] = bucket
    if found:
        fresh = dict.fromkeys(sla_ids, _NO_FOLLOWERS)
        fresh.update(found)
        cache[eid] = fresh
        totals[eid] = sum(len(bucket) for bucket in found.values())
    else:
        keys = frozenset(sla_ids)
        cache[eid] = key_sets.setdefault(keys, keys)
        totals[eid] = 0
    return bool(needed)


def _pop_best(
    heap: List[Tuple[int, int]], score_of: List[Optional[int]]
) -> Tuple[int, int]:
    """Pop the best *fresh* heap entry: max gain, smallest eid on ties.

    Entries whose score no longer matches the candidate's current score (or
    whose candidate was committed) are stale and discarded lazily; every
    live candidate always has one fresh entry, pushed when its score last
    changed.
    """
    while heap:
        neg_score, eid = heapq.heappop(heap)
        if score_of[eid] == -neg_score:
            return eid, -neg_score
    return -1, -1


@register_solver(
    "gas",
    description="greedy with per-tree-node follower reuse (Algorithm 6)",
    params=("method", "candidates"),
)
def _solve_gas(engine: SolverEngine, request: SolveSpec) -> AnchorResult:
    graph = engine.graph
    budget = request.budget
    method = _validate(
        graph, budget, method_param(request, "method", FollowerMethod.SUPPORT_CHECK)
    )
    strategy = choice_param(request, "candidates", ("heap", "scan"), "heap")
    use_heap = strategy == "heap"

    start = time.perf_counter()
    original_state = engine.original_state
    # The tree before the state: the engine then patches the initial anchors
    # onto the session's baseline tree instead of building one for them.
    tree = engine.tree()
    state = engine.state

    # Follower cache F[e][node_id], indexed by dense edge id (stable for the
    # lifetime of the run — the graph is never mutated), plus the cached
    # total follower count per entry (recomputed only when the entry moves);
    # None marks a candidate without an entry.  Both live on the engine so
    # a session spans rounds (and solves), with the key-set intern table.
    cache = engine.follower_cache
    totals = engine.follower_totals
    key_sets = engine.follower_key_sets
    # Warm path: an unanchored session that solved before restores its
    # baseline follower snapshot — every entry was computed against exactly
    # this first-round state (and the rolled-back baseline tree carries the
    # same node ids), so round one reads cached totals instead of
    # recomputing every candidate's followers.
    warm_baseline = budget > 0 and engine.restore_baseline_followers()
    invalidation: Optional[ReuseInvalidation] = None
    # Lazy candidate max-heap: entries are (-gain, eid); score_of holds each
    # live candidate's current gain by dense edge id (the freshness check at
    # pop time), None for a candidate never scored or committed.
    heap: List[Tuple[int, int]] = []
    score_of: List[Optional[int]] = [None] * graph.num_edges
    per_round_gain: List[int] = []
    reuse_rounds: List[Dict[str, float]] = []
    recompute_counts: List[int] = []
    cumulative_seconds: List[float] = []

    for _round in range(budget):
        stats = ReuseStats()
        recomputed_entries = 0
        # The candidate refresh runs in the dense-id domain of the shared
        # index: trussness deltas are list lookups, sla sets come
        # precomputed from the tree, and the smallest-edge-id tie-break is
        # plain eid order (dense ids are ascending in public edge id).
        index, current_trussness, _ly, anchor_mask = state.kernel_views()
        original_trussness = original_state.kernel_views()[1]
        edge_of = index.edge_of
        sla_sets = tree.sla_sets
        decision = invalidation.decision if invalidation is not None else None
        # Algorithm 3's starter screen for every candidate at once (the warm
        # first round refreshes nothing, so it skips the pass).
        starters = None
        if method is FollowerMethod.SUPPORT_CHECK and not (_round == 0 and warm_baseline):
            starters = state.starter_flags()

        if _round == 0 and warm_baseline:
            # Warm first round (restored baseline snapshot): every cached
            # entry and total is already exact for this state, and the
            # totals cover exactly the candidates, so the round only reads
            # them — zero follower recomputations.  The scores and heap keys
            # equal a cold first round's, so the pop order of every later
            # round is identical too: keys are (-gain, eid), and the best
            # pop is the max gain with the smallest eid, as the cold scan's.
            score_of = list(totals)
            heap = [
                (-total, eid) for eid, total in enumerate(totals) if total is not None
            ]
            heapq.heapify(heap)
            best_eid, best_count = _pop_best(heap, score_of)
        elif use_heap and invalidation is not None:
            # Heap round: only the dirty closure is re-examined; every other
            # candidate's cached gain (and FR classification) is provably
            # unchanged, so its heap entry is still fresh.
            refreshed = 0
            for eid in sorted(invalidation.dirty_eids):
                if anchor_mask[eid]:
                    continue
                refreshed += 1
                edge = edge_of[eid]
                sla_ids = sla_sets[eid] or _EMPTY_SLA
                if _refresh_entry(
                    state, tree, cache, totals, key_sets, method, starters,
                    decision, eid, edge, sla_ids, stats,
                ):
                    recomputed_entries += 1
                score = totals[eid] - (
                    current_trussness[eid] - original_trussness[eid]
                )
                if score_of[eid] != score:
                    score_of[eid] = score
                    heapq.heappush(heap, (-score, eid))
            stats.fully_reusable += (
                index.num_edges - len(state.anchors) - refreshed
            )
            best_eid, best_count = _pop_best(heap, score_of)
        else:
            # Full pass: the first round and the forced "scan" strategy.
            best_eid = -1
            best_count = -1
            for eid in range(index.num_edges):
                if anchor_mask[eid]:
                    continue
                edge = edge_of[eid]
                sla_ids = sla_sets[eid] or _EMPTY_SLA
                if _refresh_entry(
                    state, tree, cache, totals, key_sets, method, starters,
                    decision, eid, edge, sla_ids, stats,
                ):
                    recomputed_entries += 1
                # Marginal gain of Definition 4: follower count minus the
                # gain the candidate itself accumulated as a follower of
                # earlier anchors (forfeited once it becomes an anchor).
                accumulated = current_trussness[eid] - original_trussness[eid]
                total = totals[eid] - accumulated
                if use_heap and score_of[eid] != total:
                    score_of[eid] = total
                    heapq.heappush(heap, (-total, eid))
                if total > best_count:
                    best_eid, best_count = eid, total

        if _round == 0 and not warm_baseline:
            # Cold unanchored first round: persist the freshly computed
            # baseline follower cache across future resets (no-op when the
            # session carries anchors or already has a snapshot).
            engine.snapshot_baseline_followers()

        if best_eid < 0:
            break
        best_edge = edge_of[best_eid]
        engine.commit_anchor(best_edge)
        cache[best_eid] = None
        totals[best_eid] = None
        score_of[best_eid] = None
        per_round_gain.append(best_count)
        recompute_counts.append(recomputed_entries)
        if decision is not None:
            reuse_rounds.append(stats.fractions())

        if _round + 1 < budget:
            # The incremental state advance, tree patch and reuse analysis
            # only feed the next round's candidate refresh; after the final
            # anchor there is no next round (the engine's state is lazy, so
            # nothing is computed for it).
            state = engine.state
            tree = engine.tree()
            invalidation = engine.take_reuse_decision()
        cumulative_seconds.append(time.perf_counter() - start)

    elapsed = time.perf_counter() - start
    # Evaluate against the engine's own baseline: no redundant recompute, and
    # with an anchored baseline_state the reported gain measures the same
    # problem the rounds actually scored.
    result = evaluate_anchor_set(
        graph,
        engine.anchors,
        algorithm="GAS",
        elapsed_seconds=elapsed,
        baseline_state=original_state,
    )
    result.per_round_gain = per_round_gain
    result.extra["follower_method"] = method.value
    result.extra["candidate_strategy"] = strategy
    result.extra["recomputed_entries_per_round"] = recompute_counts
    result.extra["cumulative_seconds_per_round"] = cumulative_seconds
    result.extra["reuse_stats"] = reuse_rounds
    result.extra["engine"] = dict(engine.stats)
    return result


def gas(
    graph: Graph,
    budget: int,
    initial_anchors: Iterable[Edge] = (),
    method: FollowerMethod | str = FollowerMethod.SUPPORT_CHECK,
    candidates: str = "heap",
) -> AnchorResult:
    """Select ``budget`` anchor edges with the GAS algorithm.

    Parameters
    ----------
    graph:
        Input graph (not modified).
    budget:
        Number of anchor edges to select (the paper's ``b``).
    initial_anchors:
        Edges considered already anchored before the first round.
    method:
        Follower-computation strategy used for the per-node recomputations
        (``support-check`` by default; ``peel`` for the ablation study).
    candidates:
        Candidate-selection strategy: ``"heap"`` (default, lazily-invalidated
        max-heap — only the dirty closure of each commit is re-examined) or
        ``"scan"`` (the previous full scan per round; full-scan oracle).  It
        changes timings only — never results.
    """
    engine = SolverEngine(graph)
    return engine.solve(
        "gas",
        budget,
        initial_anchors=initial_anchors,
        method=method,
        candidates=candidates,
    )
