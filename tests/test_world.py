"""The scenario world: axes sampling, the registry-wide sweep and the
invariant fuzzing rig (PR 8).

The rig is the test: every sampled world point runs the full oracle bundle
of :mod:`repro.world.invariants` — incremental re-peel ≡ full
decomposition, tree patch ≡ rebuild, assembled reuse decision ≡ tree diff,
candidate heap ≡ scan, peel backends byte-identical, follower search ≡
fixed point (and no follower without a starter flag), tree rollback ≡ fresh
build.  A fast subset runs in tier-1; the full sweep (200+ points) sits
behind the ``slow`` marker.  The mutation tests deliberately break the
engine machinery and assert the rig catches it with a self-contained replay
line.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core import engine as engine_module
from repro.core import followers as followers_module
from repro.core.component_tree import TrussComponentTree
from repro.truss import peel as peel_module
from repro.truss.state import TrussState
from repro.utils.errors import InvalidParameterError
from repro.world import (
    FAMILIES,
    INVARIANTS,
    InvariantViolation,
    SWEEP_FIELDS,
    WorldAxes,
    WorldPoint,
    check_world_point,
    replay_command,
    run_sweep,
    sample_points,
    summarize_sweep,
    sweep_rows_to_csv,
)

#: The tier-1 rig subset (>= 25 points, every family via round-robin).
TIER1_POINTS = sample_points(28, seed=20260808)
#: The full fuzzing sweep (>= 200 points), behind the ``slow`` marker.
SLOW_POINTS = sample_points(204, seed=8062026)

ALL_SOLVERS = ("base", "base+", "exact", "gas", "rand", "sup", "tur")


def _spec_ids(points):
    return [point.spec() for point in points]


class TestAxesSampling:
    def test_same_seed_same_worlds(self):
        first = sample_points(20, seed=42)
        second = sample_points(20, seed=42)
        assert first == second
        assert [p.spec() for p in first] == [p.spec() for p in second]

    def test_different_seed_different_worlds(self):
        assert sample_points(20, seed=42) != sample_points(20, seed=43)

    def test_round_robin_covers_every_family(self):
        points = sample_points(len(FAMILIES), seed=0)
        assert {p.family for p in points} == set(FAMILIES)
        # ... and the acceptance floor: both rig tiers span >= 5 families
        assert len({p.family for p in TIER1_POINTS}) >= 5
        assert len({p.family for p in SLOW_POINTS}) >= 5

    def test_tier_sizes_meet_the_acceptance_floor(self):
        assert len(TIER1_POINTS) >= 25
        assert len(SLOW_POINTS) >= 200

    def test_spec_round_trip(self):
        for point in TIER1_POINTS:
            assert WorldPoint.from_spec(point.spec()) == point

    def test_build_graph_is_deterministic(self):
        point = TIER1_POINTS[0]
        assert point.build_graph() == point.build_graph()

    def test_anchor_schedule_is_bounded_and_deterministic(self):
        for point in TIER1_POINTS[:6]:
            graph = point.build_graph()
            schedule = point.anchor_schedule(graph)
            assert schedule == point.anchor_schedule()
            assert len(schedule) == min(point.anchor_count, graph.num_edges)
            assert len(set(schedule)) == len(schedule)
            for edge in schedule:
                assert graph.has_edge(*edge)

    def test_family_restriction(self):
        points = sample_points(6, seed=7, axes=WorldAxes(families=("er", "ws")))
        assert {p.family for p in points} == {"er", "ws"}

    def test_axes_validation(self):
        with pytest.raises(InvalidParameterError):
            WorldAxes(families=("er", "hypercube"))
        with pytest.raises(InvalidParameterError):
            WorldAxes(families=())
        with pytest.raises(InvalidParameterError):
            WorldAxes(n=(30, 12))
        with pytest.raises(InvalidParameterError):
            WorldAxes(n=(2, 4))
        with pytest.raises(InvalidParameterError):
            sample_points(-1, seed=0)

    def test_point_validation(self):
        with pytest.raises(InvalidParameterError):
            WorldPoint(family="hypercube", n=10, seed=1)
        with pytest.raises(InvalidParameterError):
            WorldPoint(family="er", n=10, seed=1, anchor_count=-1)
        with pytest.raises(InvalidParameterError):
            WorldPoint.from_spec("n=10;seed=1")  # no family
        with pytest.raises(InvalidParameterError):
            WorldPoint.from_spec("er;p=0.3")  # missing n= and seed=
        with pytest.raises(InvalidParameterError):
            WorldPoint.from_spec("er;n=10;seed=1;garbage")

    def test_param_lookup(self):
        point = WorldPoint(family="er", n=10, seed=1, params=(("p", 0.4),))
        assert point.param("p") == 0.4
        with pytest.raises(InvalidParameterError):
            point.param("q")


class TestSweep:
    @pytest.fixture(scope="class")
    def smoke_rows(self):
        return run_sweep(sample_points(6, seed=11), budget=2)

    def test_covers_every_registry_solver(self, smoke_rows):
        assert engine_module.available_solvers() == sorted(ALL_SOLVERS)
        by_point = {}
        for row in smoke_rows:
            by_point.setdefault(row["point"], set()).add(row["solver"])
        assert by_point  # at least one non-degenerate point
        for solvers in by_point.values():
            assert solvers == set(ALL_SOLVERS)

    def test_rows_carry_quality_latency_and_engine_stats(self, smoke_rows):
        for row in smoke_rows:
            assert set(SWEEP_FIELDS) <= set(row)
            assert row["gain"] >= 0
            assert row["followers"] >= 0
            assert row["k_max"] >= 1
            assert row["elapsed_s"] >= 0
            assert row["budget"] <= row["m"]

    def test_sweep_is_deterministic(self, smoke_rows):
        def stable(rows):
            return [
                {k: v for k, v in row.items() if k != "elapsed_s"} for row in rows
            ]

        again = run_sweep(sample_points(6, seed=11), budget=2)
        assert stable(again) == stable(smoke_rows)

    def test_json_and_csv_emission(self, smoke_rows):
        payload = json.loads(json.dumps(smoke_rows))
        assert len(payload) == len(smoke_rows)
        csv_text = sweep_rows_to_csv(smoke_rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == ",".join(SWEEP_FIELDS)
        assert len(lines) == len(smoke_rows) + 1

    def test_summary_groups_by_family_and_solver(self, smoke_rows):
        summary = summarize_sweep(smoke_rows)
        keys = {(s["family"], s["solver"]) for s in summary}
        assert len(keys) == len(summary)  # no duplicate groups
        assert {s["solver"] for s in summary} == set(ALL_SOLVERS)

    def test_unknown_solver_rejected_loudly(self):
        with pytest.raises(InvalidParameterError):
            run_sweep(sample_points(1, seed=0), solvers=["does-not-exist"])

    def test_tiny_graphs_are_skipped_with_a_note(self):
        notes = []
        point = WorldPoint(family="er", n=6, seed=1, params=(("p", 0.0),))
        rows = run_sweep([point], progress=notes.append)
        assert rows == []
        assert any("skipping" in note for note in notes)


class TestInvariantRig:
    """The oracle bundle passes on every sampled point (fast tier)."""

    @pytest.mark.parametrize("point", TIER1_POINTS, ids=_spec_ids(TIER1_POINTS))
    def test_point_passes_the_full_bundle(self, point):
        report = check_world_point(point)
        assert report.checks == INVARIANTS
        assert report.schedule_length == min(
            point.anchor_count, report.num_edges
        )

    def test_unknown_invariant_rejected(self):
        with pytest.raises(Exception, match="unknown invariants"):
            check_world_point(TIER1_POINTS[0], invariants=("does-not-exist",))


@pytest.mark.slow
class TestInvariantRigSlow:
    """The full fuzzing sweep: >= 200 points across every family."""

    @pytest.mark.parametrize("point", SLOW_POINTS, ids=_spec_ids(SLOW_POINTS))
    def test_point_passes_the_full_bundle(self, point):
        check_world_point(point)


class TestReplay:
    """Satellite: a rig failure is reproducible from one pasted line."""

    def test_replay_regenerates_identical_graph_and_schedule(self):
        for point in TIER1_POINTS[:8]:
            replayed = WorldPoint.from_spec(point.spec())
            assert replayed.build_graph() == point.build_graph()
            assert replayed.anchor_schedule() == point.anchor_schedule()

    def test_replay_command_embeds_the_spec(self):
        point = TIER1_POINTS[0]
        assert replay_command(point) == (
            f'python -m repro.cli world --replay "{point.spec()}"'
        )

    def test_cli_replay_passes_on_a_good_point(self, capsys):
        point = TIER1_POINTS[0]
        assert cli_main(["world", "--replay", point.spec()]) == 0
        out = capsys.readouterr().out
        assert "replay ok" in out
        assert point.spec() in out

    def test_cli_replay_rejects_malformed_specs(self):
        with pytest.raises(InvalidParameterError):
            cli_main(["world", "--replay", "not-a-family;n=zz"])

    def test_cli_world_sweep_smoke(self, capsys, tmp_path):
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "rows.json"
        code = cli_main([
            "world", "--points", "2", "--seed", "1",
            "--csv", str(csv_path), "--json", str(json_path),
        ])
        assert code == 0
        assert "world sweep" in capsys.readouterr().out
        assert csv_path.read_text(encoding="utf-8").startswith(",".join(SWEEP_FIELDS[:2]))
        assert json.loads(json_path.read_text(encoding="utf-8"))


class TestMutationCaught:
    """A deliberately-injected peel bug must trip the rig (acceptance)."""

    def test_broken_incremental_follower_peel_is_caught(self, capsys):
        # Mutation: skip the greatest-fixed-point peel, so every dirty-closure
        # member is (wrongly) reported as a follower.
        def buggy_gfp(index, truss, anchor_eid, k, members):
            return set(members)

        violation = None
        with mock.patch.object(followers_module, "_gfp_level", buggy_gfp):
            for point in TIER1_POINTS[:10]:
                try:
                    check_world_point(point, invariants=("incremental_repeel",))
                except InvariantViolation as caught:
                    violation = caught
                    break
        assert violation is not None, "injected peel bug never tripped the rig"
        message = str(violation)
        assert replay_command(violation.point) in message
        assert 'python -m repro.cli world --replay "' in message
        # ... and the CLI surfaces exactly that line on a failing run
        with mock.patch.object(followers_module, "_gfp_level", buggy_gfp):
            code = cli_main(["world", "--replay", violation.point.spec()])
        assert code == 1
        assert replay_command(violation.point) in capsys.readouterr().err

    def test_broken_vectorised_backend_is_caught(self):
        pytest.importorskip("numpy")
        real = peel_module.peel_trussness_arrays

        def buggy_arrays(csr, anchors=()):
            trussness, layer, k_max = real(csr, anchors)
            if trussness:
                trussness = [trussness[0] + 1] + list(trussness[1:])
            return trussness, layer, k_max

        violation = None
        with mock.patch.object(peel_module, "peel_trussness_arrays", buggy_arrays):
            for point in TIER1_POINTS[:6]:
                try:
                    check_world_point(point, invariants=("peel_backends",))
                except InvariantViolation as caught:
                    violation = caught
                    break
        assert violation is not None
        assert violation.invariant == "peel_backends"

    def test_broken_first_survivor_screen_is_caught(self):
        # Mutation: no edge is tight, so the screen finds no starter and
        # every follower search comes back empty.
        def never_tight(state):
            return bytearray(state.index.num_edges)

        violation = None
        with mock.patch.object(TrussState, "tight_flags", never_tight):
            for point in TIER1_POINTS[:10]:
                try:
                    check_world_point(point, invariants=("follower_search",))
                except InvariantViolation as caught:
                    violation = caught
                    break
        assert violation is not None, "broken screen never tripped the rig"
        assert violation.invariant == "follower_search"
        assert replay_command(violation.point) in str(violation)

    def test_screen_without_the_equal_level_clause_is_caught(self, capsys):
        # Mutation: the batched starter screen holds the third edge c only
        # when it is anchored or t(c) > t(e), dropping "t(c) = t(e) and
        # l(c) >= l(e)", so it misses starters and GAS/BASE+ would skip
        # searches that find followers.
        def screen_without_equal_level(state):
            csr = state.index.csr
            truss, layer = state.array_views()
            tight = np.frombuffer(state.tight_flags(), dtype=bool)
            base = csr.hit_bases()
            flags = np.zeros(state.index.num_edges, dtype=np.uint8)
            for e, c in ((csr.hit_e1, csr.hit_e2), (csr.hit_e2, csr.hit_e1)):
                after = (truss[e] > truss[base]) | (
                    (truss[e] == truss[base]) & (layer[e] > layer[base])
                )
                flags[base[tight[e] & after & (truss[c] > truss[e])]] = 1
            return bytearray(flags.tobytes())

        violation = None
        with mock.patch.object(TrussState, "starter_flags", screen_without_equal_level):
            for point in TIER1_POINTS:
                try:
                    check_world_point(point, invariants=("follower_search",))
                except InvariantViolation as caught:
                    violation = caught
                    break
        assert violation is not None, "broken batched screen never tripped the rig"
        assert violation.invariant == "follower_search"
        assert "starter" in violation.detail
        assert replay_command(violation.point) in str(violation)
        with mock.patch.object(TrussState, "starter_flags", screen_without_equal_level):
            code = cli_main(["world", "--replay", violation.point.spec()])
        assert code == 1
        assert replay_command(violation.point) in capsys.readouterr().err

    def test_rollback_that_skips_the_sla_restore_is_caught(self, capsys):
        # Mutation: reset() restores nodes and memberships but leaves every
        # patched sla set (and reverse-sla entry) as the last solve left it.
        def no_sla_restore(tree, journal):
            return None

        violation = None
        with mock.patch.object(TrussComponentTree, "_restore_sla", no_sla_restore):
            for point in TIER1_POINTS[:10]:
                try:
                    check_world_point(point, invariants=("tree_rollback",))
                except InvariantViolation as caught:
                    violation = caught
                    break
        assert violation is not None, "skipped sla restore never tripped the rig"
        assert violation.invariant == "tree_rollback"
        assert replay_command(violation.point) in str(violation)
        with mock.patch.object(TrussComponentTree, "_restore_sla", no_sla_restore):
            code = cli_main(["world", "--replay", violation.point.spec()])
        assert code == 1
        assert replay_command(violation.point) in capsys.readouterr().err

    def test_fallback_delta_without_layer_moves_is_caught(self, capsys):
        # Mutation: a full-peel fallback's delta lists only the anchor and
        # its followers as changed, missing every edge whose layer moved, so
        # the patch-assembled decision keeps cache entries it must drop.
        real = engine_module._fallback_delta

        def without_layer_moves(state, new_state, anchor_eid):
            delta = real(state, new_state, anchor_eid)
            delta.changed_eids = frozenset(delta.follower_eids) | {anchor_eid}
            return delta

        violation = None
        with mock.patch.object(engine_module, "_fallback_delta", without_layer_moves):
            for point in TIER1_POINTS:
                try:
                    check_world_point(point, invariants=("reuse_decision",))
                except InvariantViolation as caught:
                    violation = caught
                    break
        assert violation is not None, "fallback delta without layer moves never tripped the rig"
        assert violation.invariant == "reuse_decision"
        assert "full_peel_threshold=0.0" in violation.detail
        assert replay_command(violation.point) in str(violation)
        with mock.patch.object(engine_module, "_fallback_delta", without_layer_moves):
            code = cli_main(["world", "--replay", violation.point.spec()])
        assert code == 1
        assert replay_command(violation.point) in capsys.readouterr().err
