"""Tests for ``repro.api`` v1: the canonical SolveSpec / SolveOutcome pair.

The load-bearing properties:

* **round-trips** — randomized specs survive canonical JSON and pickle
  byte-exactly (same object back, same canonical rendering);
* **strict validation** — unknown fields, bad types, multiple graph
  sources and foreign schema versions fail loudly;
* **one ingress** — ``repro.api.solve``, :class:`Session`,
  ``SolverEngine.solve_spec`` and the registry's graph-level call all
  produce canonically identical results for the same spec;
* **warm sessions** — the persisted baseline follower cache makes a warm
  GAS first round recompute nothing while staying canonically identical.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

import repro.api as api
from repro.api import (
    SCHEMA_VERSION,
    Session,
    SolveOutcome,
    SolveSpec,
    SpecError,
    canonical_result,
    result_to_json,
)
from repro.core.engine import SolverEngine, get_solver
from repro.datasets import load_dataset
from repro.graph.generators import community_graph


def small_graph(seed: int = 5):
    return community_graph([10, 8], p_in=0.7, p_out=0.05, seed=seed)


def canonical_json(payload: dict) -> str:
    return json.dumps(canonical_result(payload), sort_keys=True)


def random_spec(rng: random.Random) -> SolveSpec:
    """A randomized but valid, JSON-typed spec."""
    source = rng.choice(["dataset", "edge_list", "edges", "unbound"])
    kwargs: dict = {}
    if source == "dataset":
        kwargs["dataset"] = rng.choice(["college", "facebook", "pokec"])
    elif source == "edge_list":
        kwargs["edge_list"] = f"/tmp/graph-{rng.randrange(100)}.txt"
    elif source == "edges":
        kwargs["edges"] = tuple(
            (rng.randrange(30), rng.randrange(30)) for _ in range(rng.randrange(1, 8))
        )
    params = {}
    if rng.random() < 0.6:
        params["seed"] = rng.randrange(1000)
    if rng.random() < 0.4:
        params["repetitions"] = rng.randrange(1, 50)
    if rng.random() < 0.3:
        params["weights"] = [rng.random() for _ in range(3)]
    return SolveSpec(
        request_id=rng.choice(["", "r1", "0", "line-7"]),
        algorithm=rng.choice(["gas", "base", "base+", "rand", "sup"]),
        budget=rng.randrange(0, 20),
        params=params,
        initial_anchors=tuple(
            (rng.randrange(30), rng.randrange(30)) for _ in range(rng.randrange(0, 3))
        ),
        **kwargs,
    )


class TestSolveSpecRoundTrips:
    @pytest.mark.parametrize("seed", range(25))
    def test_canonical_json_roundtrip(self, seed):
        spec = random_spec(random.Random(seed))
        decoded = SolveSpec.from_json_dict(json.loads(spec.canonical_json()))
        assert decoded == spec
        assert decoded.canonical_json() == spec.canonical_json()
        assert decoded.signature() == spec.signature()

    @pytest.mark.parametrize("seed", range(25))
    def test_pickle_roundtrip(self, seed):
        spec = random_spec(random.Random(seed))
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
        assert clone.signature() == spec.signature()

    def test_pickle_accepts_non_json_params(self):
        # In-process callers may pass richer values (enums, sets); such
        # specs pickle fine but are not wire-serializable — by design.
        spec = SolveSpec(algorithm="gas", params={"mask": frozenset({1, 2})})
        assert pickle.loads(pickle.dumps(spec)) == spec
        with pytest.raises(SpecError, match="not JSON-serializable"):
            spec.canonical_json()

    def test_mapping_order_does_not_matter(self):
        a = SolveSpec(dataset="college", params={"a": 1, "b": 2})
        b = SolveSpec(dataset="college", params={"b": 2, "a": 1})
        assert a == b
        assert hash(a) == hash(b)
        assert a.canonical_json() == b.canonical_json()

    def test_equality_spans_subclasses(self):
        # __eq__ deliberately compares field tuples across subclasses, so an
        # adapter subclassing SolveSpec compares equal to the spec it wraps.
        class _Adapter(SolveSpec):
            pass

        assert _Adapter(dataset="college", budget=3) == SolveSpec(
            dataset="college", budget=3
        )


class TestSolveSpecValidation:
    def test_at_most_one_source(self):
        with pytest.raises(SpecError, match="exactly one graph source"):
            SolveSpec(dataset="college", edges=((1, 2),))

    def test_unbound_spec_is_allowed_but_not_servable(self):
        spec = SolveSpec(algorithm="gas", budget=2)
        assert not spec.has_source
        assert spec.source_label() == "unbound"
        with pytest.raises(SpecError, match="exactly one graph source"):
            spec.require_source()

    def test_foreign_schema_version_rejected(self):
        with pytest.raises(SpecError, match="schema_version"):
            SolveSpec(dataset="college", schema_version=2)
        with pytest.raises(SpecError, match="schema_version"):
            SolveSpec.from_json_dict({"dataset": "college", "schema_version": 99})

    def test_unknown_json_field_rejected(self):
        with pytest.raises(SpecError, match="unknown request field"):
            SolveSpec.from_json_dict({"dataset": "college", "budgett": 3})

    def test_engine_options_validated(self):
        # Engine options are not part of a request: the full-peel threshold
        # is set where the engine is built, so every engine member is refused.
        for engine in ({"mode": "x"}, {"full_peel_threshold": [0.5]}, {"full_peel_threshold": 0.5}):
            with pytest.raises(SpecError, match=r"unknown request field\(s\): engine;"):
                SolveSpec.from_json_dict({"dataset": "college", "engine": engine})
        with pytest.raises(TypeError, match="engine"):
            SolveSpec(dataset="college", engine={"full_peel_threshold": 0.5})  # type: ignore[call-arg]

    def test_budget_and_algorithm_types(self):
        with pytest.raises(SpecError, match="budget"):
            SolveSpec(dataset="college", budget="five")  # type: ignore[arg-type]
        with pytest.raises(SpecError, match="budget"):
            SolveSpec(dataset="college", budget=True)  # type: ignore[arg-type]
        with pytest.raises(SpecError, match="algorithm"):
            SolveSpec(dataset="college", algorithm="")

    def test_edges_must_be_pairs(self):
        with pytest.raises(SpecError, match="pairs"):
            SolveSpec(edges=((1, 2, 3),))  # type: ignore[arg-type]

    def test_params_keys_must_be_strings(self):
        with pytest.raises(SpecError, match="keys must be strings"):
            SolveSpec(dataset="college", params={1: "x"})  # type: ignore[dict-item]


class TestSolveOutcome:
    def test_json_roundtrip(self):
        outcome = SolveOutcome(
            request_id="r1",
            ok=True,
            result={"gain": 3, "extra": {}},
            fingerprint="abc",
            cache={"session": "hit", "memo": True, "store": False},
            timings={"solve_s": 0.25},
        )
        decoded = SolveOutcome.from_json_dict(json.loads(outcome.to_json_line()))
        assert decoded == outcome
        assert decoded.canonical() == outcome.canonical()

    def test_pickle_roundtrip(self):
        outcome = SolveOutcome(request_id="x", ok=False, error="nope")
        assert pickle.loads(pickle.dumps(outcome)) == outcome

    def test_unknown_field_rejected(self):
        with pytest.raises(SpecError, match="unknown outcome field"):
            SolveOutcome.from_json_dict({"ok": True, "surprise": 1})

    def test_raise_for_error(self):
        from repro.utils.errors import ReproError

        assert SolveOutcome(ok=True).raise_for_error().ok
        with pytest.raises(ReproError, match="boom"):
            SolveOutcome(ok=False, error="boom").raise_for_error()


class TestOneIngress:
    """Every entry point produces canonically identical results."""

    def test_solve_session_engine_and_registry_agree(self):
        graph = small_graph()
        edges = tuple(graph.edge_list())
        spec = SolveSpec(edges=edges, algorithm="gas", budget=2)

        via_api = api.solve(spec)
        assert via_api.ok
        via_session = Session(edges=edges).solve(spec)
        via_engine = result_to_json(
            SolverEngine(graph).solve_spec(SolveSpec(algorithm="gas", budget=2))
        )
        via_registry = result_to_json(get_solver("gas")(graph, 2))

        expected = canonical_json(via_api.result)
        assert canonical_json(via_session.result) == expected
        assert canonical_json(via_engine) == expected
        assert canonical_json(via_registry) == expected

    def test_solve_with_caller_graph(self):
        graph = small_graph()
        outcome = api.solve(graph=graph, algorithm="base", budget=1)
        assert outcome.ok
        assert outcome.result["algorithm"] == "BASE"

    def test_solve_reports_errors_as_outcomes(self):
        outcome = api.solve(dataset="college", algorithm="nope", budget=1)
        assert not outcome.ok
        assert "unknown solver" in (outcome.error or "")
        assert api.solve(dataset="no-such-dataset").ok is False


class TestSession:
    def test_session_memoises_deterministic_specs(self):
        session = Session(dataset="college")
        first = session.solve(algorithm="gas", budget=2)
        second = session.solve(algorithm="gas", budget=2)
        assert first.cache["memo"] is False
        assert second.cache["memo"] is True
        assert first.canonical() == second.canonical()
        assert session.info()["memo_hits"] == 1

    def test_randomized_without_seed_not_memoised(self):
        session = Session(dataset="college")
        outcomes = [
            session.solve(algorithm="rand", budget=2, params={"repetitions": 3})
            for _ in range(2)
        ]
        assert [o.cache["memo"] for o in outcomes] == [False, False]

    def test_session_rejects_foreign_sources(self):
        session = Session(dataset="college")
        with pytest.raises(SpecError, match="bound to dataset:college"):
            session.solve_result(SolveSpec(dataset="facebook", budget=1))
        # unbound specs and matching sources both apply
        assert session.solve_result(SolveSpec(algorithm="gas", budget=1)).gain >= 0
        assert session.solve(SolveSpec(dataset="college", budget=1)).ok

    def test_session_from_caller_graph_verifies_by_content(self):
        graph = load_dataset("college")
        session = Session(graph=graph)
        assert session.solve(SolveSpec(dataset="college", budget=1)).ok
        outcome = session.solve(SolveSpec(dataset="facebook", budget=1))
        assert not outcome.ok and "does not match" in outcome.error

    def test_session_requires_exactly_one_source(self):
        with pytest.raises(SpecError, match="exactly one session source"):
            Session()
        with pytest.raises(SpecError, match="exactly one session source"):
            Session(dataset="college", edges=((1, 2),))


class TestWarmGas:
    """The GAS warm-path fix: baseline followers persist across resets."""

    def test_warm_first_round_recomputes_nothing(self):
        engine = SolverEngine(small_graph(11))
        cold = engine.solve("gas", 3)
        # A budget the session has not covered yet runs its rounds (an
        # equal one would replay the recorded rounds instead).
        warm = engine.solve("gas", 4)
        fresh = SolverEngine(small_graph(11)).solve("gas", 4)
        cold_counts = cold.extra["recomputed_entries_per_round"]
        warm_counts = warm.extra["recomputed_entries_per_round"]
        assert cold_counts[0] > 0
        assert warm_counts[0] == 0
        assert warm_counts[1 : len(cold_counts)] == cold_counts[1:]
        assert warm_counts[1:] == fresh.extra["recomputed_entries_per_round"][1:]
        # ... while staying canonically identical (anchors, gains, reuse
        # stats, engine counters — everything but the work-rate counters).
        assert canonical_json(result_to_json(warm)) == canonical_json(
            result_to_json(fresh)
        )

    @pytest.mark.parametrize("candidates", ["heap", "scan"])
    def test_warm_equals_fresh_for_both_strategies(self, candidates):
        graph = small_graph(12)
        engine = SolverEngine(graph)
        engine.solve("gas", 2, candidates=candidates)
        warm = engine.solve("gas", 4, candidates=candidates)
        fresh = SolverEngine(graph).solve("gas", 4, candidates=candidates)
        assert warm.anchors == fresh.anchors
        assert warm.per_round_gain == fresh.per_round_gain
        assert warm.extra["reuse_stats"] == fresh.extra["reuse_stats"]
        assert warm.extra["engine"] == fresh.extra["engine"]

    def test_initial_anchors_bypass_the_snapshot(self):
        graph = small_graph(13)
        engine = SolverEngine(graph)
        engine.solve("gas", 2)
        anchor = graph.edge_list()[0]
        warm = engine.solve("gas", 2, initial_anchors=[anchor])
        fresh = SolverEngine(graph).solve("gas", 2, initial_anchors=[anchor])
        assert warm.anchors == fresh.anchors
        assert (
            warm.extra["recomputed_entries_per_round"]
            == fresh.extra["recomputed_entries_per_round"]
        )

    def test_snapshot_survives_other_solvers(self):
        engine = SolverEngine(small_graph(14))
        engine.solve("gas", 2)
        engine.solve("base", 1)
        engine.solve("sup", 2, seed=3, repetitions=2)
        # A budget the session has not covered runs its rounds from the
        # snapshot (an equal one would replay the recorded rounds instead).
        warm = engine.solve("gas", 3)
        cold = SolverEngine(small_graph(14)).solve("gas", 3)
        assert warm.extra["recomputed_entries_per_round"][0] == 0
        assert warm.extra["engine"]["incremental_peels"] > 0
        assert canonical_json(result_to_json(warm)) == canonical_json(
            result_to_json(cold)
        )

    @staticmethod
    def _buckets(entries):
        """Snapshot entries as node -> bucket dicts (a key set, the entry of
        a candidate without a follower, expands to empty buckets)."""
        return {
            eid: (
                dict.fromkeys(entry, frozenset())
                if isinstance(entry, frozenset)
                else dict(entry)
            )
            for eid, entry in enumerate(entries)
            if entry is not None
        }

    def test_warm_sequence_equals_fresh_engines_and_keeps_the_snapshot(self):
        # The restored entries are shared with the snapshot and replaced,
        # never edited, and the warm first round heapifies the snapshot's
        # totals: neither may leak into a later answer or the snapshot.
        graph = community_graph([14, 12, 10], p_in=0.6, p_out=0.05, seed=21)
        anchor = graph.edge_list()[3]
        sequence = [
            ("gas", 1, {}),
            ("gas", 5, {}),
            ("base", 2, {}),
            ("gas", 2, {}),
            ("base+", 2, {}),
            ("gas", 3, {"initial_anchors": [anchor]}),
            ("gas", 20, {}),
            ("gas", 5, {"candidates": "scan"}),
        ]
        engine = SolverEngine(graph)
        snapshot = None
        for algorithm, budget, params in sequence:
            warm = engine.solve(algorithm, budget, **params)
            fresh = SolverEngine(graph).solve(algorithm, budget, **params)
            assert canonical_json(result_to_json(warm)) == canonical_json(
                result_to_json(fresh)
            ), (algorithm, budget, params)
            if snapshot is None:
                entries, totals = engine._baseline_followers
                snapshot = (self._buckets(entries), list(totals))
            entries, totals = engine._baseline_followers
            assert self._buckets(entries) == snapshot[0]
            assert totals == snapshot[1]
        assert engine.solve_count == len(sequence)

    def test_warm_follower_turns_a_restored_key_set_into_a_dict(self):
        # A warm solve's later round gives a follower to an entry the
        # snapshot holds as a bare key set: the live entry becomes a
        # node -> bucket dict, while the snapshot keeps the very same key
        # set object with the same keys.  On this graph GAS b=3 gains
        # nothing in its first two rounds and entries 5 and 6, follower-less
        # at baseline, hold followers in the third.
        graph = community_graph([8, 7, 6], p_in=0.55, p_out=0.1, seed=48)
        engine = SolverEngine(graph)
        engine.solve("gas", 1)
        entries, totals = engine._baseline_followers
        key_sets = {
            eid: (entry, set(entry))
            for eid, entry in enumerate(entries)
            if isinstance(entry, frozenset)
        }
        assert key_sets and all(totals[eid] == 0 for eid in key_sets)
        warm = engine.solve("gas", 3)
        assert warm.extra["recomputed_entries_per_round"][0] == 0
        grown = [
            eid
            for eid in key_sets
            if type(engine.follower_cache[eid]) is dict
            and engine.follower_totals[eid] > 0
        ]
        assert grown == [5, 6]
        for eid in grown:
            buckets = engine.follower_cache[eid].values()
            assert sum(map(len, buckets)) == engine.follower_totals[eid]
        assert engine._baseline_followers[0] is entries
        for eid, (entry, keys) in key_sets.items():
            assert entries[eid] is entry
            assert set(entry) == keys
            assert totals[eid] == 0
        fresh = SolverEngine(graph).solve("gas", 3)
        assert canonical_json(result_to_json(warm)) == canonical_json(
            result_to_json(fresh)
        )

    def test_restore_is_a_noop_without_snapshot(self):
        engine = SolverEngine(small_graph(15))
        assert engine.restore_baseline_followers() is False
        engine.commit_anchor(engine.graph.edge_list()[0])
        engine.snapshot_baseline_followers()  # anchored: must not snapshot
        engine.reset()
        assert engine.restore_baseline_followers() is False


class TestApiVersion:
    def test_schema_version_is_one(self):
        assert SCHEMA_VERSION == 1
        assert SolveSpec(dataset="college").to_json_dict()["schema_version"] == 1
        assert SolveOutcome(ok=True).to_json_dict()["schema_version"] == 1
