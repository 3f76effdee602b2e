"""The metamorphic/differential oracle run per sampled world point.

One call to :func:`check_world_point` asserts the engine's full invariant
bundle against a point's graph and anchor schedule:

``incremental_repeel``
    After every committed anchor, the forced-incremental engine state must
    equal a from-scratch full decomposition — trussness, peeling layers,
    anchor mask and ``k_max``, all byte-identical, in both the list views
    and the NumPy array views — and its arrays must equal its own lists,
    which hold Python ints outside the anchors.
``tree_patch``
    The incrementally patched component tree must be structurally identical
    to a tree rebuilt from the post-commit state.
``reuse_decision``
    After every committed anchor, the patch-assembled
    :meth:`SolverEngine.take_reuse_decision` must equal the before/after
    tree diff of :func:`repro.oracles.compute_reuse_decision_reference` on
    trees built from the pre- and post-commit states, with the engine
    forced incremental and forced onto the full-peel fallback.
``candidate_heap``
    GAS with the candidate heap must return byte-identical anchors, gains
    and followers to the full-scan reference, with the engine forced
    incremental and forced onto the full-peel fallback.
``peel_backends``
    The vectorised wave peel must produce the ``(trussness, layer, k_max)``
    triple of the from-scratch oracle
    :func:`repro.oracles.truss_decomposition_reference`, mapped to dense
    edge ids (:func:`repro.oracles.dense_peel_reference`), with and without
    the anchor schedule.
``follower_search``
    On the engine state after the schedule's last commit (incremental
    layers, patched tree), Algorithm 3 with its first-survivor screen
    (:func:`repro.core.followers.followers_support_check`) must return, for
    every non-anchored candidate, the engine's dirty-closure fixed point —
    the follower set ``incremental_repeel`` pins to full decompositions —
    unfiltered, and restricted to each of the candidate's ``sla`` nodes.
    A candidate the batched screen leaves unflagged
    (:meth:`~repro.truss.state.TrussState.starter_flags`, which GAS and
    BASE+ use to skip the search) must have an empty fixed point.
``tree_rollback``
    After the schedule is committed and the session's baseline tree
    patched, :meth:`SolverEngine.reset` must roll the tree back to the
    signature of a fresh build, and warm GAS solves of b = 3 and then
    b + 1 (fewer on a smaller graph) on that session must equal cold ones
    canonically, ``extra.engine`` included.  The larger second budget runs
    rounds past the session's recorded GAS trajectory, so a run after a
    rollback stays covered.
``gas_prefix``
    A warm engine that solved unanchored GAS with budget B = 4 (fewer on a
    smaller graph) must answer every budget b < B by replaying its
    recorded rounds — running none, so no engine counter moves — and
    canonically byte-identical to a fresh engine's solve, with the engine
    forced incremental and forced onto the full-peel fallback.

A failed check raises :class:`InvariantViolation`, whose message embeds the
single self-contained replay line::

    python -m repro.cli world --replay "<point-spec>"

so any fuzzed failure reproduces from one pasted command.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.api.spec import canonical_result, result_to_json
from repro.core import engine as engine_module
from repro.core.component_tree import TrussComponentTree
from repro.core.followers import _followers_on_arrays, followers_support_check
from repro.graph.graph import Graph
from repro.graph.index import GraphIndex
from repro.oracles import compute_reuse_decision_reference, dense_peel_reference
from repro.truss import peel as peel_module
from repro.truss.state import TrussState
from repro.utils.errors import ReproError
from repro.world.axes import WorldPoint

__all__ = [
    "INVARIANTS",
    "InvariantReport",
    "InvariantViolation",
    "check_world_point",
    "replay_command",
    "tree_signature",
]

#: Names of the oracle's checks, in execution order.
INVARIANTS: Tuple[str, ...] = (
    "incremental_repeel",
    "tree_patch",
    "reuse_decision",
    "candidate_heap",
    "peel_backends",
    "follower_search",
    "tree_rollback",
    "gas_prefix",
)

_ALWAYS_INCREMENTAL = math.inf
#: Every commit whose dirty closure is not empty falls back to a full peel.
_ALWAYS_FULL_PEEL = 0.0


def replay_command(point: WorldPoint) -> str:
    """The one-line command that reproduces a failure of ``point``."""
    return f'python -m repro.cli world --replay "{point.spec()}"'


class InvariantViolation(ReproError):
    """An engine invariant failed on a sampled world point."""

    def __init__(self, point: WorldPoint, invariant: str, detail: str) -> None:
        self.point = point
        self.invariant = invariant
        self.detail = detail
        super().__init__(
            f"invariant {invariant!r} violated on world point {point.spec()!r}: "
            f"{detail}\n  replay: {replay_command(point)}"
        )


@dataclass(frozen=True)
class InvariantReport:
    """What one :func:`check_world_point` pass covered (all checks passed)."""

    point: WorldPoint
    num_vertices: int
    num_edges: int
    schedule_length: int
    checks: Tuple[str, ...]


def tree_signature(tree: TrussComponentTree):
    """Everything that defines a component tree, in comparable form: its
    nodes, roots, ``node_of_eid`` and ``sla`` sets."""
    nodes = {
        nid: (node.k, node.edge_ids, node.parent, frozenset(node.children))
        for nid, node in tree.nodes.items()
    }
    sla = tuple(frozenset(entry or ()) for entry in tree.sla_sets)
    return (nodes, frozenset(tree.roots), tuple(tree.node_of_eid), sla)


def _state_views(state: TrussState):
    _index, truss, layer, mask = state.kernel_views()
    truss_arr, layer_arr = state.array_views()
    return (
        list(truss),
        list(layer),
        bytes(mask),
        state.k_max,
        truss_arr.tolist(),
        layer_arr.tolist(),
    )


def _check_incremental_repeel(point: WorldPoint, graph: Graph, schedule) -> None:
    engine = engine_module.SolverEngine(
        graph, full_peel_threshold=_ALWAYS_INCREMENTAL
    )
    for i, edge in enumerate(schedule):
        engine.commit_anchor(edge)
        where = f"after commit {i + 1}/{len(schedule)} ({edge!r})"
        got = _state_views(engine.state)
        want = _state_views(TrussState.compute(graph, schedule[: i + 1]))
        if got != want:
            fields = (
                "trussness",
                "layer",
                "anchor mask",
                "k_max",
                "trussness array",
                "layer array",
            )
            diverged = [name for name, g, w in zip(fields, got, want) if g != w]
            raise InvariantViolation(
                point,
                "incremental_repeel",
                f"{where} the incremental state diverges from the full "
                f"decomposition in: {', '.join(diverged)}",
            )
        truss, layer, mask, _k_max, truss_arr, layer_arr = got
        ints = all(
            type(truss[e]) is int and type(layer[e]) is int
            for e in range(len(mask))
            if not mask[e]
        )
        if truss_arr != truss or layer_arr != layer or not ints:
            raise InvariantViolation(
                point,
                "incremental_repeel",
                f"{where} the incremental state's arrays differ from its "
                "list views, or a list view holds a non-int",
            )


def _check_tree_patch(point: WorldPoint, graph: Graph, schedule) -> None:
    engine = engine_module.SolverEngine(
        graph, full_peel_threshold=_ALWAYS_INCREMENTAL
    )
    engine.tree()
    for i, edge in enumerate(schedule):
        engine.commit_anchor(edge)
        patched = engine.tree()
        rebuilt = TrussComponentTree.build(engine.state)
        if tree_signature(patched) != tree_signature(rebuilt):
            raise InvariantViolation(
                point,
                "tree_patch",
                f"after commit {i + 1}/{len(schedule)} ({edge!r}) the patched "
                "component tree differs from a from-scratch rebuild",
            )


def _check_reuse_decision(point: WorldPoint, graph: Graph, schedule) -> None:
    for threshold in (_ALWAYS_INCREMENTAL, _ALWAYS_FULL_PEEL):
        engine = engine_module.SolverEngine(graph, full_peel_threshold=threshold)
        engine.tree()
        previous = engine.state
        previous_tree = TrussComponentTree.build(previous)
        for i, edge in enumerate(schedule):
            engine.commit_anchor(edge)
            got = engine.take_reuse_decision()
            current = engine.state
            current_tree = TrussComponentTree.build(current)
            want = compute_reuse_decision_reference(
                previous_tree, current_tree, edge, current.followers_relative_to(previous)
            )
            previous, previous_tree = current, current_tree
            where = (
                f"after commit {i + 1}/{len(schedule)} ({edge!r}, "
                f"full_peel_threshold={threshold})"
            )
            if got is None:
                raise InvariantViolation(
                    point,
                    "reuse_decision",
                    f"{where} a single-commit decision came back None",
                )
            if (
                got.decision.invalid_node_ids != want.invalid_node_ids
                or got.decision.invalid_eids != want.invalid_eids
            ):
                raise InvariantViolation(
                    point,
                    "reuse_decision",
                    f"{where} the patch-assembled decision differs from the "
                    "before/after tree diff",
                )


def _check_candidate_heap(point: WorldPoint, graph: Graph) -> None:
    budget = min(3, graph.num_edges)
    if budget < 1:
        return

    def gas(threshold: float, candidates: str):
        engine = engine_module.SolverEngine(graph, full_peel_threshold=threshold)
        return engine.solve("gas", budget, candidates=candidates)

    reference = gas(_ALWAYS_INCREMENTAL, "scan")
    for threshold, candidates in (
        (_ALWAYS_INCREMENTAL, "heap"),
        (_ALWAYS_FULL_PEEL, "heap"),
        (_ALWAYS_FULL_PEEL, "scan"),
    ):
        run = gas(threshold, candidates)
        if (
            run.anchors != reference.anchors
            or run.gain != reference.gain
            or run.per_round_gain != reference.per_round_gain
            or run.followers != reference.followers
        ):
            raise InvariantViolation(
                point,
                "candidate_heap",
                f"gas {candidates} (full_peel_threshold={threshold}) differs "
                f"from the full scan: gain={run.gain} anchors={run.anchors!r} "
                f"vs scan gain={reference.gain} anchors={reference.anchors!r}",
            )


def _check_peel_backends(point: WorldPoint, graph: Graph, schedule) -> None:
    index = GraphIndex.of(graph)
    anchor_eids = [index.eid_of[edge] for edge in schedule]
    for anchors in ([], anchor_eids):
        expected = dense_peel_reference(graph, anchors)
        if peel_module.peel_trussness_arrays(index.csr, anchors) != expected:
            raise InvariantViolation(
                point,
                "peel_backends",
                f"vectorized peel differs from the oracle decomposition "
                f"(anchors={anchors!r})",
            )


def _check_follower_search(point: WorldPoint, graph: Graph, schedule) -> None:
    engine = engine_module.SolverEngine(
        graph, full_peel_threshold=_ALWAYS_INCREMENTAL
    )
    engine.tree()
    for edge in schedule:
        engine.commit_anchor(edge)
    state = engine.state
    tree = engine.tree()
    index, truss, _layer, mask = state.kernel_views()
    starters = state.starter_flags()
    edge_of = index.edge_of
    node_of_eid = tree.node_of_eid
    for eid in range(index.num_edges):
        if mask[eid]:
            continue
        closure = engine_module._dirty_closure(index, truss, eid)
        expected = {edge_of[f] for f in _followers_on_arrays(index, truss, eid, closure)}
        if expected and not starters[eid]:
            raise InvariantViolation(
                point,
                "follower_search",
                f"after {len(schedule)} commit(s) {edge_of[eid]!r} has no "
                f"starter flag, but its dirty-closure fixed point is "
                f"{sorted(expected)!r}",
            )
        searches = [(None, expected)]
        for node_id in sorted(tree.sla_sets[eid] or ()):
            members = {edge_of[e] for e in tree.nodes[node_id].edge_ids}
            searches.append((node_id, expected & members))
        for node_id, want in searches:
            nodes = None if node_id is None else (node_of_eid, {node_id})
            got = followers_support_check(state, edge_of[eid], candidate_nodes=nodes)
            if got != want:
                where = "unfiltered" if node_id is None else f"restricted to node {node_id}"
                raise InvariantViolation(
                    point,
                    "follower_search",
                    f"after {len(schedule)} commit(s) the follower search of "
                    f"{edge_of[eid]!r} ({where}) returned {sorted(got)!r}, "
                    f"the dirty-closure fixed point {sorted(want)!r}",
                )


def _check_tree_rollback(point: WorldPoint, graph: Graph, schedule) -> None:
    engine = engine_module.SolverEngine(
        graph, full_peel_threshold=_ALWAYS_INCREMENTAL
    )
    fresh = tree_signature(TrussComponentTree.build(engine.original_state))
    engine.tree()
    for edge in schedule:
        engine.commit_anchor(edge)
    engine.tree()
    engine.reset()
    if tree_signature(engine.tree()) != fresh:
        raise InvariantViolation(
            point,
            "tree_rollback",
            f"after {len(schedule)} patched commit(s), reset() left a "
            "component tree that differs from a fresh build",
        )
    budget = min(3, graph.num_edges)
    if budget < 1:
        return
    for attempt, warm_budget in (
        ("first", budget),
        ("second", min(budget + 1, graph.num_edges)),
    ):
        cold = engine_module.SolverEngine(
            graph, full_peel_threshold=_ALWAYS_INCREMENTAL
        ).solve("gas", warm_budget)
        want = canonical_result(result_to_json(cold))
        got = canonical_result(result_to_json(engine.solve("gas", warm_budget)))
        if got != want:
            raise InvariantViolation(
                point,
                "tree_rollback",
                f"the {attempt} warm gas b={warm_budget} solve after a rollback "
                f"differs from a cold one: warm gain={got['gain']} "
                f"anchors={got['anchors']!r} engine={got['extra'].get('engine')!r} "
                f"vs cold gain={want['gain']} anchors={want['anchors']!r} "
                f"engine={want['extra'].get('engine')!r}",
            )


def _check_gas_prefix(point: WorldPoint, graph: Graph) -> None:
    def canonical(result) -> str:
        return json.dumps(canonical_result(result_to_json(result)), sort_keys=True)

    longest = min(4, graph.num_edges)
    for threshold in (_ALWAYS_INCREMENTAL, _ALWAYS_FULL_PEEL):
        engine = engine_module.SolverEngine(graph, full_peel_threshold=threshold)
        engine.solve("gas", longest)
        for budget in range(1, longest):
            warm = canonical(engine.solve("gas", budget))
            worked = {name: count for name, count in engine.stats.items() if count}
            fresh = canonical(
                engine_module.SolverEngine(graph, full_peel_threshold=threshold).solve(
                    "gas", budget
                )
            )
            if worked or warm != fresh:
                what = (
                    f"ran rounds instead of replaying them (engine={worked!r})"
                    if worked
                    else f"differs from a fresh engine's: {warm} vs {fresh}"
                )
                raise InvariantViolation(
                    point,
                    "gas_prefix",
                    f"after gas b={longest}, warm gas b={budget} "
                    f"(full_peel_threshold={threshold}) {what}",
                )


def check_world_point(
    point: WorldPoint,
    invariants: Sequence[str] = INVARIANTS,
) -> InvariantReport:
    """Run the oracle bundle on ``point``; raise :class:`InvariantViolation`
    on the first failed check, return an :class:`InvariantReport` otherwise.
    """
    unknown = set(invariants) - set(INVARIANTS)
    if unknown:
        raise ReproError(f"unknown invariants {sorted(unknown)}; known: {INVARIANTS}")
    graph = point.build_graph()
    schedule = point.anchor_schedule(graph)
    if "incremental_repeel" in invariants:
        _check_incremental_repeel(point, graph, schedule)
    if "tree_patch" in invariants:
        _check_tree_patch(point, graph, schedule)
    if "reuse_decision" in invariants:
        _check_reuse_decision(point, graph, schedule)
    if "candidate_heap" in invariants:
        _check_candidate_heap(point, graph)
    if "peel_backends" in invariants:
        _check_peel_backends(point, graph, schedule)
    if "follower_search" in invariants:
        _check_follower_search(point, graph, schedule)
    if "tree_rollback" in invariants:
        _check_tree_rollback(point, graph, schedule)
    if "gas_prefix" in invariants:
        _check_gas_prefix(point, graph)
    return InvariantReport(
        point=point,
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        schedule_length=len(schedule),
        checks=tuple(name for name in INVARIANTS if name in invariants),
    )
