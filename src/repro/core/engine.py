"""The solver engine: one session object behind every anchor-selection run.

Before this layer existed each solver owned its own round loop and rebuilt
the shared machinery — :class:`~repro.graph.index.GraphIndex`,
:class:`~repro.truss.state.TrussState`, the
:class:`~repro.core.component_tree.TrussComponentTree` and the GAS follower
caches — independently, and BASE re-peeled the *whole graph* once per
candidate edge per round.  :class:`SolverEngine` consolidates that round
machinery:

* it owns the index, the original (anchor-free) state, the current anchored
  state, the component tree and the per-candidate follower caches for one
  solve session;
* committed anchors advance the state by **incremental re-peeling** (see
  below) instead of a full :func:`~repro.truss.decomposition.truss_decomposition`;
* BASE's per-candidate gain evaluation runs the same restricted re-peel, so
  a candidate costs work proportional to its *dirty region* instead of the
  whole graph;
* solvers are plain functions ``(engine, request) -> AnchorResult`` looked
  up in a registry (:func:`register_solver` / :func:`get_solver`), so the
  CLI table and the experiment harness pick up a new solver from one
  registration instead of five hand-maintained edits.

Incremental re-peeling
----------------------
Anchoring a single edge ``x`` on top of an exact state changes the
decomposition in a bounded region:

1. *Trussness.*  By Lemma 1 every follower gains exactly ``+1``, and by
   Lemma 2 the followers are contained in the upward-route reachable
   closure of ``x``'s triangle neighbours.  The engine expands a
   layer-free superset of that closure (safe even while intermediate
   layers are unknown, e.g. in chained evaluations), then runs the
   greatest-fixed-point peel of each trussness level restricted to the
   closure — exactly the per-level condition of the follower search, which
   yields the exact follower set and therefore the exact new trussness of
   every edge.
2. *Layers.*  The synchronous peeling layers of phase ``k`` depend only on
   which edges have (new) trussness ``>= k``, so a phase needs re-peeling
   exactly when its membership or mid-phase removals changed: the old and
   new level of every follower, the old level of ``x`` itself, and every
   level above ``t(x)`` where ``x``'s new permanent presence closes a
   triangle with a still-present partner.  Those hulls are re-peeled with
   the same synchronous-wave rule as the full decomposition; every other
   level keeps its old layers unchanged.

When the dirty closure exceeds ``full_peel_threshold * m`` edges the engine
falls back to a full peel — the incremental path is an optimisation, never a
semantic fork, and the test-suite asserts both produce identical
decompositions on randomized anchored graphs.

Warm sessions
-------------
The assets that depend only on the baseline state live as long as the
engine: the anchor-free state, the GAS baseline follower snapshot, the
upward-route sizes (:meth:`SolverEngine.route_sizes`) and the baseline
component tree.  A solve patches that tree in place — initial anchors first,
one patch per commit, full-peel fallbacks included — and the tree journals
what it changed; :meth:`SolverEngine.reset` rolls it back to the baseline
instead of rebuilding it.

The engine also keeps the *GAS trajectory*: the recorded rounds of the
longest unanchored GAS solve it has run (:class:`GasTrajectory`).  Round
``r`` of GAS depends only on the rounds before it — the budget only bounds
the loop, since ``_round + 1 < budget`` only skips the last round's advance
— and a warm round equals a cold one canonically, so each recorded round
equals the same round of any later solve with the same key
``(method, candidates, full_peel_threshold)``.  The threshold is part of
the key because ``extra.engine`` counts full-peel fallbacks.

* *Record.*  After each round's commit and before the next round's
  advance, GAS records the anchor, the round's gain, how many
  ``reuse_stats`` entries exist so far and the :attr:`SolverEngine.stats`
  counters — exactly what a solve with that budget reports.  Only a solve
  that started with no committed or initial anchors, ran to completion,
  ended at the ``full_peel_threshold`` it started at (the library sets it
  only in the constructor) and ran more rounds than the held recording
  replaces it (:meth:`SolverEngine.keep_gas_trajectory`).
* *Replay.*  An unanchored request with the same key and ``budget`` at
  most the recorded rounds (:meth:`SolverEngine.gas_trajectory`) commits
  the recorded anchors lazily, runs no round, and ends with the one
  ``evaluate_anchor_set`` every GAS solve ends with; ``per_round_gain``,
  ``extra.reuse_stats`` and ``extra.engine`` come from the recording, so
  the canonical answer is byte-identical.  The volatile fields describe
  the replay itself: ``recomputed_entries_per_round`` reads 0 for every
  round, the timings are its own, and :attr:`SolverEngine.stats` (hence
  the lifetime counters) counts no work.  A longer budget runs from the
  baseline follower snapshot and replaces the recording; a request with
  initial anchors neither reads nor writes it.  :meth:`SolverEngine.reset`
  keeps it; it lives and dies with the engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

import numpy as _np

from repro.api.spec import SolveSpec
from repro.core.component_tree import TreePatchInfo, TrussComponentTree
from repro.core.followers import _followers_on_arrays
from repro.core.result import AnchorResult
from repro.core.reuse import ReuseDecision, ReuseInvalidation
from repro.core.upward_route import upward_route_sizes
from repro.graph.csr import CSRArrays
from repro.graph.graph import Edge, Graph
from repro.graph.index import GraphIndex
from repro.obs.tracing import span as _span
from repro.truss.peel import hit_rows, peel_trussness_fast
from repro.truss.decomposition import TrussDecomposition
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError

__all__ = [
    "CommitDelta",
    "GasRound",
    "GasTrajectory",
    "SolveSpec",
    "SolverEngine",
    "SolverSpec",
    "register_solver",
    "get_solver",
    "available_solvers",
    "solver_table",
    "solve",
]

#: Fraction of the edge count above which the dirty closure triggers a full
#: re-peel instead of the incremental one (the incremental bookkeeping no
#: longer pays off once most of the graph is dirty anyway).
DEFAULT_FULL_PEEL_THRESHOLD = 0.25

#: Pending invalidation entries kept before the log is dropped — a consumer
#: (GAS, BASE) drains it every round; anything far beyond that is an engine
#: user who never calls :meth:`SolverEngine.take_reuse_decision`.
_INVALIDATION_LOG_LIMIT = 64

_INF = math.inf

#: One GAS follower entry ``F[e][*]`` (see :func:`repro.core.gas._refresh_entry`):
#: the interned node-id key set of an entry without a follower, or the
#: node id -> follower bucket mapping of an entry with one.
FollowerEntry = Union[FrozenSet[int], Mapping[int, FrozenSet[Edge]]]


@dataclass
class CommitDelta:
    """What one committed anchor changed in the decomposition.

    Recorded by :meth:`SolverEngine._advance` for every commit — by the
    incremental re-peel, or by :func:`_fallback_delta` after a full peel —
    and consumed by the component-tree patch
    (:meth:`~repro.core.component_tree.TrussComponentTree.apply_commit`):

    * ``anchor_eid`` — dense id of the committed anchor;
    * ``follower_eids`` — its exact follower set (every one gained ``+1``);
    * ``changed_eids`` — every edge whose trussness *or* peeling layer
      differs from the pre-commit state (the anchor itself included); this
      is exactly the ``invalid_eids`` set of the reuse rule (Algorithm 5);
    * ``state_after`` — the materialised post-commit state, kept only once
      the current solve has asked for the tree and cleared once the tree has
      consumed the delta, so chained states do not accumulate.
    """

    anchor_eid: int
    follower_eids: Tuple[int, ...]
    changed_eids: FrozenSet[int]
    state_after: Optional[TrussState]


@dataclass(frozen=True)
class GasRound:
    """One recorded GAS round, as a solve whose budget ends at it reports it.

    ``reuse_count`` is how many ``extra.reuse_stats`` entries exist after
    the round; ``stats`` holds :attr:`SolverEngine.stats` after the round's
    commit, before the next round's advance.
    """

    anchor: Edge
    gain: int
    reuse_count: int
    stats: Mapping[str, int]


@dataclass(frozen=True)
class GasTrajectory:
    """The recorded rounds of one unanchored GAS solve (see "Warm sessions").

    ``key`` is ``(method, candidates, full_peel_threshold)``; ``reuse_stats``
    holds the solve's per-round reuse fractions, of which a replay of
    budget ``b`` reports the first ``rounds[b - 1].reuse_count``.
    """

    key: Tuple[str, str, float]
    rounds: Tuple[GasRound, ...]
    reuse_stats: Tuple[Mapping[str, float], ...]


def _fallback_delta(
    state: TrussState, new_state: TrussState, anchor_eid: int
) -> CommitDelta:
    """The :class:`CommitDelta` of a commit that fell back to a full peel.

    The followers are the edges whose trussness rose; the changed edges add
    every edge whose layer moved, which includes the anchor (its layer
    becomes ``inf``).  One pass over the two states' arrays, where the
    incremental path reads the same sets off its re-peeled hulls.
    """
    risen, _gains = new_state._trussness_deltas(state)  # each +1 (Lemma 1)
    moved = _np.flatnonzero(new_state.array_views()[1] != state.array_views()[1])
    followers = risen.tolist()
    return CommitDelta(
        anchor_eid=anchor_eid,
        follower_eids=tuple(followers),
        changed_eids=frozenset(followers).union(moved.tolist()),
        state_after=None,
    )


# ---------------------------------------------------------------------------
# Incremental re-peeling primitives (dense-id domain)
# ---------------------------------------------------------------------------
def _dirty_closure(
    index: GraphIndex,
    truss: List[float],
    anchor_eid: int,
    limit: Optional[float] = None,
) -> Optional[Set[int]]:
    """Layer-free superset of the Lemma-2 upward-route closure of ``anchor_eid``.

    Seeds are the anchor's non-anchored triangle neighbours with trussness at
    least ``t(x)``; the expansion walks same-trussness triangle neighbours.
    Dropping the layer comparisons keeps the closure valid when intermediate
    layers are stale (chained evaluations) — it is only ever a superset, and
    the per-level greatest fixed point below is exact for any member set
    sandwiched between the followers and the whole hull.

    When ``limit`` is given the walk aborts and returns ``None`` as soon as
    the closure exceeds it — the caller falls back to a full peel, so there
    is no point paying for the rest of the expansion.
    """
    tri = index.edge_triangles
    t_anchor = truss[anchor_eid]
    seen: Set[int] = {anchor_eid}
    stack: List[int] = []
    for a, b in tri[anchor_eid]:
        for eid in (a, b):
            if eid not in seen and t_anchor <= truss[eid] != _INF:
                seen.add(eid)
                stack.append(eid)
    closure: Set[int] = set(stack)
    if limit is not None and len(closure) > limit:
        return None
    while stack:
        eid = stack.pop()
        k = truss[eid]
        for a, b in tri[eid]:
            for nxt in (a, b):
                if nxt not in seen and truss[nxt] == k:
                    seen.add(nxt)
                    closure.add(nxt)
                    stack.append(nxt)
        if limit is not None and len(closure) > limit:
            return None
    return closure


def _repeel_hull_layers(
    csr: CSRArrays, truss: _np.ndarray, k: int, members: _np.ndarray
) -> _np.ndarray:
    """The synchronous peeling layers of the ``k``-hull, aligned with ``members``.

    ``members`` are the ascending eids with (new) trussness exactly ``k``;
    support is counted against the phase-``k`` graph ``{t >= k}`` (anchors
    hold ``inf`` in ``truss``).  The waves follow the order-independent
    rule of :func:`repro.truss.peel.peel_trussness_arrays` restricted to
    the hull: a frontier edge's hit row ``(base; a, b)`` decrements iff
    ``a`` and ``b`` are both still in the phase-``k`` graph and each of them
    that is in the current wave has an id greater than ``base``.  Only hull
    members can fall in phase ``k``, so only their supports are tracked, and
    the layers equal those of a full peel.
    """
    m = csr.num_edges
    alive = truss >= k
    in_hull = _np.zeros(m, dtype=bool)
    in_hull[members] = True
    in_wave = _np.zeros(m, dtype=bool)
    support = _np.zeros(m, dtype=_np.int64)
    layer = _np.zeros(m, dtype=_np.int64)
    threshold = k - 2

    base, a, b = hit_rows(csr, members)
    counted = alive[a] & alive[b]
    support[members] = _np.bincount(base[counted], minlength=m)[members]
    frontier = members[support[members] <= threshold]
    layer_index = 0
    while frontier.size:
        layer_index += 1
        layer[frontier] = layer_index
        in_wave[frontier] = True
        base, a, b = hit_rows(csr, frontier)
        ok = (
            alive[a]
            & alive[b]
            & (~in_wave[a] | (a > base))
            & (~in_wave[b] | (b > base))
        )
        alive[frontier] = False
        in_wave[frontier] = False
        touched = _np.concatenate([a[ok], b[ok]])
        touched = touched[in_hull[touched] & alive[touched]]
        if not touched.size:
            break
        uniq, cnts = _np.unique(touched, return_counts=True)
        support[uniq] -= cnts
        frontier = uniq[support[uniq] <= threshold]
    return layer[members]


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------
class SolverEngine:
    """Shared session state for one (or several) solves over a fixed graph.

    The engine owns everything the solvers used to rebuild independently:
    the frozen :class:`GraphIndex`, the anchor-free baseline state, the
    current anchored state (advanced by incremental re-peeling on every
    committed anchor), the truss component tree of the current state and the
    GAS follower caches.  Solvers access it through :meth:`solve` or drive
    the primitives (:meth:`commit_anchor`, :meth:`evaluate_gain`,
    :meth:`tree`) directly.

    ``full_peel_threshold`` is the engine's one tuning knob and this
    constructor the one place it is set: ``0.0`` sends every commit with a
    non-empty dirty closure to the full-peel fallback, ``math.inf`` none.
    It changes timings, never answers, so requests do not carry it.
    """

    def __init__(
        self,
        graph: Graph,
        baseline_state: Optional[TrussState] = None,
        full_peel_threshold: float = DEFAULT_FULL_PEEL_THRESHOLD,
    ) -> None:
        if (
            isinstance(full_peel_threshold, bool)
            or not isinstance(full_peel_threshold, (int, float))
            or math.isnan(full_peel_threshold)
            or full_peel_threshold < 0
        ):
            raise InvalidParameterError(
                f"full_peel_threshold must be a number >= 0 (math.inf allowed), "
                f"got {full_peel_threshold!r}"
            )
        self.graph = graph
        self.index = GraphIndex.of(graph)
        self.full_peel_threshold = full_peel_threshold
        self._original_state = baseline_state
        # Committed anchor chain + the prefix of it already materialised as a
        # TrussState (commits are lazy: a final round that never reads the
        # state costs nothing, mirroring the solvers' old skip-last-round
        # optimisation).
        self.anchors: List[Edge] = []
        self._chain_state: Optional[TrussState] = None
        self._chain_count = 0
        # The session's baseline component tree: built once from
        # original_state, journalled, patched by each solve and rolled back
        # by reset().
        self._baseline_tree: Optional[TrussComponentTree] = None
        # The tree of the current solve: the baseline tree, or a solve-local
        # build when the chain materialised before the solve's first tree()
        # call (dropped by reset()).
        self._tree: Optional[TrussComponentTree] = None
        self._tree_state: Optional[TrussState] = None
        # Set by the solve's first tree() call; commits keep their
        # post-commit state for the patch only from then on.
        self._tree_wanted = False
        # Upward-route size per dense edge id of original_state (lazy).
        self._route_sizes: Optional[List[int]] = None
        # One delta per commit, aligned with the materialised chain; the
        # component tree consumes them from _tree_commit_index onwards.
        self._deltas: List[CommitDelta] = []
        self._tree_commit_index = 0
        # Invalidation log since the last take_reuse_decision() call: one
        # (TreePatchInfo, CommitDelta) pair per patched commit, or None once
        # it overflowed (nobody drains it) and can no longer be exact.
        self._invalidation_log: Optional[List[Tuple[TreePatchInfo, CommitDelta]]] = []
        # GAS per-candidate follower caches, indexed by dense edge id (None
        # for no entry): F[eid] plus the cached per-candidate totals, and the
        # table that interns the key sets of entries without a follower.
        # Owned here so a session can span rounds.
        m = self.index.num_edges
        self.follower_cache: List[Optional[FollowerEntry]] = [None] * m
        self.follower_totals: List[Optional[int]] = [None] * m
        self.follower_key_sets: Dict[FrozenSet[int], FrozenSet[int]] = {}
        # Baseline follower snapshot (the GAS warm-path fix): the follower
        # cache of an *unanchored* first round, captured once per session by
        # :meth:`snapshot_baseline_followers` and surviving :meth:`reset` —
        # a warm session's first GAS round restores it instead of
        # recomputing every candidate's followers from scratch.
        self._baseline_followers: Optional[
            Tuple[List[Optional[FollowerEntry]], List[Optional[int]]]
        ] = None
        # The GAS trajectory: the recorded rounds of the longest unanchored
        # GAS solve so far (see "Warm sessions"), surviving reset().
        self._gas_trajectory: Optional[GasTrajectory] = None
        #: Diagnostics: how often each re-peel path ran for the *current*
        #: solve.  :meth:`reset` folds the counters into
        #: :attr:`lifetime_stats` and zeroes them, so a warm (cached) engine
        #: reports exactly the same per-solve stats as a fresh one — the
        #: serving layer's byte-identity guarantee depends on this.
        self.stats: Dict[str, int] = {
            "incremental_peels": 0,
            "full_peels": 0,
            "incremental_gain_evals": 0,
            "full_gain_evals": 0,
            "dirty_edges": 0,
            "tree_patches": 0,
            "tree_rebuilds": 0,
        }
        #: Accumulated counters of every solve that was *reset away* (the
        #: current solve's counters live in :attr:`stats` until the next
        #: reset); see :meth:`session_info` for the combined view.
        self.lifetime_stats: Dict[str, int] = dict.fromkeys(self.stats, 0)
        #: Number of :meth:`solve` calls served by this engine instance.
        self.solve_count = 0

    # ------------------------------------------------------------------
    # State management
    # ------------------------------------------------------------------
    @property
    def original_state(self) -> TrussState:
        """The anchor-free baseline state (Definition 4's reference point)."""
        if self._original_state is None:
            self._original_state = TrussState.compute(self.graph)
        return self._original_state

    @property
    def state(self) -> TrussState:
        """The state of the committed anchor chain (materialised on demand).

        The chain always extends :attr:`original_state` — if a provided
        baseline carries anchors of its own, committed anchors stack on top
        of them, regardless of whether the state was first read before or
        after the commits.
        """
        state = self._chain_state
        if state is None:
            state = self.original_state
        while self._chain_count < len(self.anchors):
            state = self._advance(state, self.anchors[self._chain_count])
            self._chain_count += 1
        self._chain_state = state
        return state

    def reset(self, initial_anchors: Iterable[Edge] = ()) -> None:
        """Start a fresh solve: drop the chain, caches and per-solve stats,
        and roll the component tree back to the baseline.

        The expensive session assets — the :class:`GraphIndex`, the
        anchor-free baseline state, the baseline component tree, the
        baseline follower snapshot, the GAS trajectory and the
        upward-route sizes — survive,
        which is exactly what a warm (cached) engine amortises across
        requests.  Everything a solver can observe is restored: the state
        chain, the component tree (its undo journal rolls back every patch
        of the previous solve, also one that raised part-way), the follower
        caches and the :attr:`stats` counters (folded into
        :attr:`lifetime_stats`), so a solve on a reused engine returns
        results canonically identical to the same solve on a fresh engine
        (only work-rate diagnostics such as GAS's recompute counters may
        differ — a warm first round recomputes nothing; see
        :func:`repro.api.canonical_result`).

        Duplicate initial anchors are dropped (first occurrence wins) —
        anchoring is idempotent, and the chain advance rejects re-anchoring.
        """
        for key, value in self.stats.items():
            self.lifetime_stats[key] = self.lifetime_stats.get(key, 0) + value
            self.stats[key] = 0
        seen: Set[Edge] = set()
        self.anchors = []
        for e in initial_anchors:
            edge = self.graph.require_edge(e)
            if edge not in seen:
                seen.add(edge)
                self.anchors.append(edge)
        self._chain_state = None
        self._chain_count = 0
        if self._baseline_tree is not None:
            self._baseline_tree.rollback()
        self._tree = None
        self._tree_state = None
        self._tree_wanted = False
        self._deltas = []
        self._tree_commit_index = 0
        self._invalidation_log = []
        no_entries = [None] * self.index.num_edges
        self.follower_cache[:] = no_entries
        self.follower_totals[:] = no_entries
        self.follower_key_sets.clear()

    def snapshot_baseline_followers(self) -> None:
        """Persist the unanchored first-round follower cache for future solves.

        Called by GAS right after a cold first-round full pass on an
        **unanchored** session (no committed or initial anchors): at that
        point every ``F[e][node]`` entry and every cached total was computed
        against :attr:`original_state`, so they are valid for the first
        round of *any* later unanchored solve on this engine.  A no-op when
        anchors are present, when a snapshot already exists, or when there
        is nothing to snapshot.

        No entry is copied: key sets are immutable already, and each dict
        entry is frozen behind a read-only :class:`~types.MappingProxyType`,
        which both the snapshot and the live cache hold from then on.  The
        solver replaces an entry instead of editing it, so the snapshot
        stays pristine; the snapshot itself is two list copies.
        """
        if self.anchors or self._baseline_followers is not None:
            return
        cache = self.follower_cache
        totals = self.follower_totals
        if totals.count(None) == len(totals):
            return
        for eid, entry in enumerate(cache):
            if type(entry) is dict:
                cache[eid] = MappingProxyType(entry)
        self._baseline_followers = (list(cache), list(totals))

    def restore_baseline_followers(self) -> bool:
        """Refill the live follower caches from the baseline snapshot.

        Returns ``True`` when the snapshot applied: the session is
        unanchored (the snapshot was taken against :attr:`original_state`,
        which every solve chain starts from) and a snapshot exists.  The
        restore mutates the cache lists in place, so aliases held by a
        running solver stay valid.  The entries are shared read-only with
        the snapshot (see :meth:`snapshot_baseline_followers`), so a restore
        copies two flat lists and no entry.
        """
        if self.anchors or self._baseline_followers is None:
            return False
        cache, totals = self._baseline_followers
        self.follower_cache[:] = cache
        self.follower_totals[:] = totals
        return True

    def gas_trajectory(
        self, key: Tuple[str, str, float], budget: int
    ) -> Optional[GasTrajectory]:
        """The GAS trajectory, if it can answer this request by replay.

        ``key`` is the request's ``(method, candidates,
        full_peel_threshold)``.  Returns the held :class:`GasTrajectory`
        when the session is unanchored (no initial anchors), the keys match
        and ``1 <= budget <=`` its recorded rounds; ``None`` otherwise, and
        the request runs its rounds.
        """
        trajectory = self._gas_trajectory
        if (
            self.anchors
            or trajectory is None
            or trajectory.key != key
            or not 0 < budget <= len(trajectory.rounds)
        ):
            return None
        return trajectory

    def keep_gas_trajectory(self, trajectory: GasTrajectory) -> None:
        """Hold ``trajectory`` if it recorded more rounds than the held one.

        GAS calls this at the end of an unanchored solve that ended at the
        threshold it started at (see "Warm sessions" in the module docstring).
        """
        held = self._gas_trajectory
        if held is None or len(trajectory.rounds) > len(held.rounds):
            self._gas_trajectory = trajectory

    def commit_anchor(self, edge: Edge) -> None:
        """Append ``edge`` to the anchor chain (state advances lazily)."""
        self.anchors.append(self.graph.require_edge(edge))

    def tree(self) -> TrussComponentTree:
        """The truss component tree of the current state.

        A solve starts from the session's baseline tree, built once from
        :attr:`original_state` on the first call and rolled back by every
        :meth:`reset`, and advances it **incrementally**: each commit's
        :class:`CommitDelta` (initial anchors and full-peel fallbacks
        included) is applied via :meth:`TrussComponentTree.apply_commit`,
        touching only the nodes whose trussness levels changed.  The one
        build inside a solve is for a chain that materialised before the
        solve's first call: its deltas kept no states to patch with (solvers
        read the tree before the state).  ``stats["tree_rebuilds"]`` counts
        that build; the baseline tree is a session asset and is not counted.
        Every commit patched after the solve's first call is logged so
        :meth:`take_reuse_decision` can report the exact invalidation.
        """
        if self._tree_wanted:
            return self._advance_tree()
        if self._chain_count:
            # The chain materialised first: its deltas kept no states.
            state = self.state
            with _span("engine.tree_rebuild"):
                self._tree = TrussComponentTree.build(state)
            self.stats["tree_rebuilds"] += 1
            self._tree_state = state
            self._tree_commit_index = self._chain_count
        else:
            self._tree = self._session_tree()
            self._tree_state = self.original_state
        # From here on commits keep the post-commit states the patches need.
        self._tree_wanted = True
        tree = self._advance_tree()
        # The commits absorbed so far are the solve's starting point, not a
        # round: no reuse decision spans them.
        self._invalidation_log = []
        return tree

    def _session_tree(self) -> TrussComponentTree:
        """The journalled baseline tree, built on first use."""
        tree = self._baseline_tree
        if tree is None:
            original = self.original_state
            with _span("engine.tree_rebuild"):
                tree = TrussComponentTree.build(original)
            tree.start_journal()
            self._baseline_tree = tree
        return tree

    def _advance_tree(self) -> TrussComponentTree:
        """Patch the current tree up to :attr:`state`, one commit at a time."""
        state = self.state
        tree = self._tree
        assert tree is not None
        if self._tree_state is state:
            return tree
        log = self._invalidation_log
        for delta in self._deltas[self._tree_commit_index:]:
            assert delta.state_after is not None
            info = tree.apply_commit(delta, delta.state_after)
            self.stats["tree_patches"] += 1
            delta.state_after = None  # release the chained state
            self._tree_commit_index += 1
            if log is not None:
                log.append((info, delta))
        if log is not None and len(log) > _INVALIDATION_LOG_LIMIT:
            # Nobody is draining the log; stop accumulating exact info.
            self._invalidation_log = None
        self._tree_state = state
        return tree

    def route_sizes(self) -> List[int]:
        """Upward-route size of every edge of :attr:`original_state`.

        Indexed by dense edge id (anchored edges read 0); Table IV's sizes
        and the ``tur`` ranking.  Computed on first use in one pass
        (:func:`repro.core.upward_route.upward_route_sizes`) and kept for the
        session, since they depend only on the baseline state.  Treat the
        list as read-only.
        """
        sizes = self._route_sizes
        if sizes is None:
            original = self.original_state
            with _span("core.upward_route"):
                sizes = upward_route_sizes(original)
            self._route_sizes = sizes
        return sizes

    def take_reuse_decision(self) -> Optional[ReuseInvalidation]:
        """Exact follower-reuse invalidation for the commits since last asked.

        Refreshes the component tree, then assembles the decision from the
        bookkeeping of the tree patches it logged — no before/after tree
        diff, no full scan — and ``dirty_eids`` narrows the candidates the
        GAS heap and BASE must re-examine to the dirty closure.  Returns
        ``None`` when no information is available (no commit since the last
        call, or a log that overflowed because nobody drained it) — callers
        must then treat every cached entry as invalid.

        For one commit the decision equals the before/after diff of the
        reuse rule (:func:`repro.oracles.compute_reuse_decision_reference`
        on the two trees), which the test-suite asserts on randomized
        graphs on both sides of the full-peel threshold.
        """
        self.tree()
        log = self._invalidation_log
        self._invalidation_log = []
        if not log:
            return None
        decision = ReuseDecision()
        dirty: Set[int] = set()
        for info, delta in log:
            decision.invalid_node_ids |= info.invalid_node_ids
            decision.invalid_eids |= delta.changed_eids
            dirty |= info.dirty_candidate_eids
        return ReuseInvalidation(decision=decision, dirty_eids=dirty)

    # ------------------------------------------------------------------
    # Incremental re-peeling
    # ------------------------------------------------------------------
    def _advance(self, state: TrussState, new_anchor: Edge) -> TrussState:
        """Exact state for ``state.anchors + {new_anchor}`` via incremental re-peel."""
        index = self.index
        eid = index.eid_of[new_anchor]
        _index, truss, layer, mask = state.kernel_views()
        if mask[eid]:
            raise InvalidParameterError(f"edge {new_anchor!r} is already anchored")
        m = index.num_edges

        dirty = _dirty_closure(index, truss, eid, self.full_peel_threshold * m)
        if dirty is None:
            self.stats["full_peels"] += 1
            with _span("engine.full_peel", edges=m):
                new_state = TrussState.compute(
                    self.graph, set(state.anchors) | {new_anchor}
                )
                delta = _fallback_delta(state, new_state, eid)
        else:
            self.stats["dirty_edges"] += len(dirty)
            self.stats["incremental_peels"] += 1
            with _span("engine.incremental_peel", dirty_edges=len(dirty)):
                new_state, delta = self._advance_incremental(
                    state, new_anchor, eid, dirty, truss, layer, mask
                )
        # The chained state is only kept once the solve has asked for the
        # tree (the patch consumes it); solvers that never read the tree
        # must not pin the whole chain in memory.
        if self._tree_wanted:
            delta.state_after = new_state
        self._deltas.append(delta)
        return new_state

    def _advance_incremental(
        self,
        state: TrussState,
        new_anchor: Edge,
        eid: int,
        dirty: Set[int],
        truss,
        layer,
        mask,
    ) -> Tuple[TrussState, CommitDelta]:
        index = self.index
        followers = _followers_on_arrays(index, truss, eid, dirty)

        # The new state's views: the list views for the scalar loops and
        # the float64 arrays for the batched passes, kept equal entry for
        # entry (Python ints in the lists, inf at anchors in both).
        truss_arr, layer_arr = state.array_views()
        new_truss: List[float] = list(truss)
        new_layer: List[float] = list(layer)
        new_truss_arr = truss_arr.copy()
        new_layer_arr = layer_arr.copy()
        new_mask = bytearray(mask)
        t_x = truss[eid]
        affected_levels: Set[int] = {int(t_x)}
        for f in followers:
            k = int(truss[f])
            new_truss[f] = k + 1
            affected_levels.add(k)
            affected_levels.add(k + 1)
        new_truss_arr[followers] += 1
        new_truss[eid] = _INF
        new_layer[eid] = _INF
        new_truss_arr[eid] = _INF
        new_layer_arr[eid] = _INF
        new_mask[eid] = 1
        # Levels above t(x) where the anchor's new permanent presence closes
        # a triangle with a still-present partner: their waves gain support.
        for a, b in index.edge_triangles[eid]:
            for c, d in ((a, b), (b, a)):
                tc = new_truss[c]
                if t_x < tc != _INF and new_truss[d] >= tc:
                    affected_levels.add(int(tc))

        # Re-peel each affected hull, found from the arrays, and record the
        # commit delta for the incremental tree patch: the exact followers
        # plus every edge whose trussness OR layer moved (layers cannot move
        # outside the re-peeled hulls — invariant 3 of the incremental
        # re-peel).
        changed: Set[int] = {eid}
        changed.update(followers)
        csr = index.csr
        for k in affected_levels:
            members = _np.flatnonzero(new_truss_arr == k)
            if not members.size:
                continue
            layers = _repeel_hull_layers(csr, new_truss_arr, k, members)
            moved = layers != new_layer_arr[members]
            moved_eids = members[moved]
            moved_layers = layers[moved]
            new_layer_arr[moved_eids] = moved_layers
            for e2, value in zip(moved_eids.tolist(), moved_layers.tolist()):
                new_layer[e2] = value
                changed.add(e2)
        k_max = int(new_truss_arr.max(where=new_truss_arr != _INF, initial=1))

        anchor_set = frozenset(state.anchors | {new_anchor})
        decomposition = TrussDecomposition(
            anchor_set,
            k_max,
            (index, new_truss, new_layer, new_mask),
            (new_truss_arr, new_layer_arr),
        )
        new_state = TrussState(graph=self.graph, anchors=anchor_set, decomposition=decomposition)
        delta = CommitDelta(
            anchor_eid=eid,
            follower_eids=tuple(sorted(followers)),
            changed_eids=frozenset(changed),
            state_after=None,
        )
        return new_state, delta

    def evaluate_gain(self, edge: Edge) -> int:
        """Trussness gain of anchoring ``edge`` on top of the current state.

        This is BASE's per-candidate evaluation: a re-peel restricted to the
        dirty region (with the full-peel fallback), diffed against the
        current state.  By Lemma 1 the diff equals the follower count.

        A candidate the state's :meth:`~repro.truss.state.TrussState.starter_flags`
        leaves unflagged has no follower, so it gains 0 without the
        re-peel.  Its dirty closure is still walked up to the threshold
        limit, so it counts as the same full or incremental evaluation as
        the re-peel would (``extra.engine`` is part of the canonical result).
        """
        state = self.state
        index = self.index
        eid = index.eid_of[self.graph.require_edge(edge)]
        _index, truss, _layer, mask = state.kernel_views()
        if mask[eid]:
            raise InvalidParameterError(f"edge {edge!r} is already anchored")
        m = index.num_edges
        dirty = _dirty_closure(index, truss, eid, self.full_peel_threshold * m)
        has_starter = state.starter_flags()[eid]
        if dirty is None:
            self.stats["full_gain_evals"] += 1
            if not has_starter:
                return 0
            eid_of = index.eid_of
            anchor_eids = [eid_of[a] for a in state.anchors]
            anchor_eids.append(eid)
            new_truss = peel_trussness_fast(index, anchor_eids)[0]
            counted = ~_np.frombuffer(mask, dtype=bool)
            counted[eid] = False
            return int((new_truss[counted] - state.array_views()[0][counted]).sum())
        self.stats["incremental_gain_evals"] += 1
        if not has_starter:
            return 0
        return len(_followers_on_arrays(index, truss, eid, dirty))

    def apply_anchor_to_arrays(
        self,
        truss: List[float],
        mask: bytearray,
        eid: int,
        anchored_eids: Sequence[int],
    ) -> Tuple[List[float], bytearray]:
        """Anchor ``eid`` on top of dense ``(truss, mask)`` overlay arrays.

        ``anchored_eids`` must list every eid already anchored in ``truss``
        (baseline anchors included) — the full-peel fallback re-anchors all
        of them.  Returns fresh arrays; the inputs are not mutated.  Layers
        are *not* maintained: this is the trussness-only chain primitive
        behind :meth:`evaluate_anchor_chain_gain` and the exact solver's
        prefix-shared enumeration.
        """
        index = self.index
        all_anchors = list(anchored_eids)
        all_anchors.append(eid)
        new_mask = bytearray(mask)
        new_mask[eid] = 1
        dirty = _dirty_closure(
            index, truss, eid, self.full_peel_threshold * index.num_edges
        )
        if dirty is None:
            self.stats["full_gain_evals"] += 1
            new_truss: List[float] = peel_trussness_fast(index, all_anchors)[0].tolist()
            for done in all_anchors:  # anchors carry the peeling sentinel 0
                new_truss[done] = _INF
        else:
            self.stats["incremental_gain_evals"] += 1
            new_truss = list(truss)
            for f in _followers_on_arrays(index, truss, eid, dirty):
                new_truss[f] += 1
            new_truss[eid] = _INF
        return new_truss, new_mask

    def evaluate_anchor_chain_gain(self, edges: Iterable[Edge]) -> int:
        """Gain of an arbitrary anchor set, chained one incremental step at a
        time from the original state (Definition 4).

        Convenience wrapper over :meth:`apply_anchor_to_arrays` for one-off
        subset evaluations (used by the equivalence tests and available to
        custom solvers).  The exact solver does *not* call it — it shares the
        arrays of common subset prefixes across its whole enumeration, which
        a per-subset chain cannot.
        """
        index = self.index
        m = index.num_edges
        eid_of = index.eid_of
        graph = self.graph
        _index, base_truss, _layer, base_mask = self.original_state.kernel_views()
        truss: List[float] = list(base_truss)
        mask = bytearray(base_mask)
        anchored = [eid_of[a] for a in self.original_state.anchors]
        for edge in edges:
            eid = eid_of[graph.require_edge(edge)]
            if mask[eid]:
                continue
            truss, mask = self.apply_anchor_to_arrays(truss, mask, eid, anchored)
            anchored.append(eid)
        gain = 0
        for e2 in range(m):
            if mask[e2] or base_mask[e2]:
                continue
            gain += truss[e2] - base_truss[e2]
        return int(gain)

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def solve(
        self,
        algorithm: str,
        budget: int,
        initial_anchors: Iterable[Edge] = (),
        **params: object,
    ) -> AnchorResult:
        """Run a registered solver against this session.

        ``algorithm`` is a registry name (see :func:`available_solvers`);
        ``initial_anchors`` are committed before round one; ``params`` are
        solver-specific knobs validated against the solver's declared
        parameter list (a typo fails loudly).  Convenience wrapper that
        builds the canonical (unbound) :class:`repro.api.SolveSpec` and
        delegates to :meth:`solve_spec`.
        """
        return self.solve_spec(
            SolveSpec(
                algorithm=algorithm,
                budget=budget,
                initial_anchors=tuple(initial_anchors),
                params=params,
            )
        )

    def solve_spec(self, spec: SolveSpec) -> AnchorResult:
        """Serve one canonical :class:`repro.api.SolveSpec` on this session.

        The single ingress every solve funnels through (the CLI, the Python
        API, the serving layer and the registry's graph-level convenience
        all end up here).  The spec's graph *source*, if any, is the
        caller's responsibility — :class:`repro.api.Session` and the
        serving layer verify it resolves to this engine's graph before
        calling.  The session is reset first, so one engine can
        serve many solves while reusing its :class:`GraphIndex`, baseline
        state and baseline follower snapshot.
        """
        solver = get_solver(spec.algorithm)
        if solver.params is not None:
            unknown = {name for name, _v in spec.params} - set(solver.params)
            if unknown:
                raise InvalidParameterError(
                    f"unknown parameter(s) for solver {spec.algorithm!r}: "
                    f"{', '.join(sorted(unknown))}; accepted: "
                    f"{', '.join(sorted(solver.params)) or '(none)'}"
                )
        self.solve_count += 1
        with _span("engine.solve_spec", algorithm=spec.algorithm, budget=spec.budget):
            # The reset's tree rollback is part of serving this spec.
            self.reset(spec.initial_anchors)
            return solver.fn(self, spec)

    def session_info(self) -> Dict[str, object]:
        """Session-level diagnostics for long-lived (cached) engines.

        Returns the solve count plus the lifetime re-peel counters (the
        accumulated :attr:`lifetime_stats` merged with the current solve's
        :attr:`stats`).  The serving layer attaches this to its responses so
        operators can see how warm a session actually is.
        """
        combined = dict(self.lifetime_stats)
        for key, value in self.stats.items():
            combined[key] = combined.get(key, 0) + value
        return {
            "solve_count": self.solve_count,
            "num_vertices": self.graph.num_vertices,
            "num_edges": self.graph.num_edges,
            "lifetime_stats": combined,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (
            f"SolverEngine(n={self.graph.num_vertices}, m={self.graph.num_edges}, "
            f"anchors={len(self.anchors)})"
        )


# ---------------------------------------------------------------------------
# Solver registry
# ---------------------------------------------------------------------------
SolverFn = Callable[[SolverEngine, SolveSpec], AnchorResult]

@dataclass(frozen=True)
class SolverSpec:
    """One registry entry: a named solver with its engine-level entry point.

    ``params`` declares the parameter names the solver reads from
    ``request.params``; :meth:`SolverEngine.solve` rejects anything else, so
    a typo'd keyword fails loudly instead of silently running with defaults.
    ``None`` (the default for third-party registrations) skips the check.

    ``randomized`` marks solvers whose result depends on randomness unless a
    ``seed`` parameter is supplied (the Rand/Sup/Tur baselines).  The serving
    layer consults it before memoising a result: a deterministic solver is a
    pure function of ``(graph, request)`` and can be answered from cache; a
    randomized one without a seed must be re-run every time.
    """

    name: str
    fn: SolverFn
    description: str = ""
    params: Optional[Tuple[str, ...]] = None
    randomized: bool = False

    def __call__(
        self,
        graph: Graph,
        budget: int,
        initial_anchors: Iterable[Edge] = (),
        baseline_state: Optional[TrussState] = None,
        **params: object,
    ) -> AnchorResult:
        """Convenience graph-level invocation (builds a one-shot engine)."""
        engine = SolverEngine(graph, baseline_state=baseline_state)
        return engine.solve(self.name, budget, initial_anchors=initial_anchors, **params)


_REGISTRY: Dict[str, SolverSpec] = {}
_BUILTINS_LOADED = False


def _ensure_builtin_solvers() -> None:
    """Import the built-in solver modules so their registrations run.

    Deferred (instead of top-level imports) to keep this module free of
    cycles: the solver modules import the registry from here.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    _BUILTINS_LOADED = True
    import repro.core.exact  # noqa: F401
    import repro.core.gas  # noqa: F401
    import repro.core.greedy  # noqa: F401
    import repro.core.heuristics  # noqa: F401


def register_solver(
    name: str,
    fn: Optional[SolverFn] = None,
    description: str = "",
    replace: bool = False,
    params: Optional[Tuple[str, ...]] = None,
    randomized: bool = False,
) -> Callable[[SolverFn], SolverFn]:
    """Register ``fn`` under ``name`` (usable as a decorator).

    Registering an existing name raises unless ``replace=True`` — silently
    shadowing a solver is how benchmark tables go subtly wrong.  ``params``
    optionally declares the accepted ``request.params`` keys and
    ``randomized`` marks seed-dependent solvers (see :class:`SolverSpec`).
    """

    def _register(solver_fn: SolverFn) -> SolverFn:
        if not replace and name in _REGISTRY:
            raise InvalidParameterError(f"solver {name!r} is already registered")
        _REGISTRY[name] = SolverSpec(
            name=name,
            fn=solver_fn,
            description=description,
            params=params,
            randomized=randomized,
        )
        return solver_fn

    if fn is not None:
        return _register(fn)
    return _register


def get_solver(name: str) -> SolverSpec:
    """Look up a registered solver by name."""
    _ensure_builtin_solvers()
    try:
        return _REGISTRY[name]
    except KeyError as exc:
        raise InvalidParameterError(
            f"unknown solver {name!r}; registered: {', '.join(sorted(_REGISTRY))}"
        ) from exc


def available_solvers() -> List[str]:
    """Names of every registered solver, sorted."""
    _ensure_builtin_solvers()
    return sorted(_REGISTRY)


class _RegistryView(Mapping):
    """A live read-only mapping view over the solver registry.

    The CLI's solver table is an instance of this class, so a solver
    registered anywhere (including third-party code) shows up without any
    table edit.
    """

    def __getitem__(self, name: str) -> SolverSpec:
        _ensure_builtin_solvers()
        return _REGISTRY[name]

    def __iter__(self):
        _ensure_builtin_solvers()
        return iter(sorted(_REGISTRY))

    def __len__(self) -> int:
        _ensure_builtin_solvers()
        return len(_REGISTRY)


def solver_table() -> Mapping[str, SolverSpec]:
    """A live name -> solver mapping (the CLI's ``_SOLVERS`` view)."""
    return _RegistryView()


def solve(graph: Graph, budget: int, algorithm: str = "gas", **params: object) -> AnchorResult:
    """One-shot convenience: build an engine and run ``algorithm``.

    Equivalent to ``SolverEngine(graph).solve(algorithm, budget, **params)``;
    ``baseline_state`` goes to the engine instead of the solver.  Use a
    long-lived :class:`SolverEngine` instead when running several solves
    over the same graph.
    """
    return get_solver(algorithm)(graph, budget, **params)
