"""Tests for the transport abstraction, the process executor and the
shared cross-graph result store.

The load-bearing property is the acceptance grid of ``repro.api`` v1:
canonical byte-identity of outcomes across {thread, process} executors ×
{stdio, tcp} transports, with the store and per-worker session caches free
to route requests however they like.  :class:`TestEveryRoute` runs every
registered solver through every ingress path, so a newly registered solver
is covered without an edit.
"""

from __future__ import annotations

import io
import json

import pytest

import repro.api as api
from repro.api import SolveSpec, canonical_result
from repro.core.engine import available_solvers, get_solver
from repro.service import (
    ResultStore,
    SolveService,
    StdioTransport,
    TcpTransport,
    request_lines_over_tcp,
    result_to_json,
    run_batch,
    serve_stream,
)
from repro.graph.generators import community_graph


def small_graph(seed: int):
    return community_graph([10, 8], p_in=0.7, p_out=0.05, seed=seed)


def canonical_json(payload: dict) -> str:
    return json.dumps(canonical_result(payload), sort_keys=True)


def mixed_specs():
    graphs = [small_graph(80), small_graph(81)]
    specs = []
    for i, graph in enumerate(graphs):
        edges = tuple(graph.edge_list())
        specs.append(
            SolveSpec(request_id=f"g{i}/gas", edges=edges, algorithm="gas", budget=2)
        )
        specs.append(
            SolveSpec(request_id=f"g{i}/base", edges=edges, algorithm="base", budget=1)
        )
        specs.append(
            SolveSpec(
                request_id=f"g{i}/sup",
                edges=edges,
                algorithm="sup",
                budget=2,
                params={"seed": 9, "repetitions": 3},
            )
        )
    return specs


@pytest.fixture(scope="module")
def thread_truth():
    """Ground truth: the mixed workload served by a plain thread service."""
    specs = mixed_specs()
    with SolveService(workers=2) as service:
        outcomes = service.solve_many(specs)
    assert all(outcome.ok for outcome in outcomes)
    return specs, {o.request_id: canonical_json(o.result) for o in outcomes}


# ---------------------------------------------------------------------------
# serve_stream + transports
# ---------------------------------------------------------------------------
class TestServeStream:
    def test_orders_and_reports_errors_in_place(self, thread_truth):
        specs, expected = thread_truth
        lines = ["# comment", json.dumps(specs[0].to_json_dict()), "", "{broken",
                 json.dumps(specs[1].to_json_dict())]
        written = []
        with SolveService(workers=2) as service:
            count = serve_stream(service, lines, written.append)
        assert count == 3
        decoded = [json.loads(line) for line in written]
        assert [d["id"] for d in decoded] == [specs[0].request_id, "line-4", specs[1].request_id]
        assert [d["ok"] for d in decoded] == [True, False, True]
        assert canonical_json(decoded[0]["result"]) == expected[specs[0].request_id]

    def test_stdio_transport_wraps_the_stream(self, thread_truth):
        specs, expected = thread_truth
        stdin = io.StringIO(
            "\n".join(json.dumps(spec.to_json_dict()) for spec in specs[:2]) + "\n"
        )
        stdout = io.StringIO()
        with SolveService(workers=1) as service:
            count = StdioTransport(stdin=stdin, stdout=stdout).serve(service)
        assert count == 2
        decoded = [json.loads(line) for line in stdout.getvalue().splitlines()]
        assert [d["id"] for d in decoded] == [s.request_id for s in specs[:2]]
        for d in decoded:
            assert canonical_json(d["result"]) == expected[d["id"]]


class TestTcpTransport:
    def test_tcp_matches_thread_truth(self, thread_truth):
        specs, expected = thread_truth
        with SolveService(workers=2) as service:
            transport = TcpTransport(port=0)
            host, port = transport.start(service)
            lines = [json.dumps(spec.to_json_dict()) for spec in specs] + ["{broken"]
            responses = request_lines_over_tcp(host, port, lines)
            transport.close()
        decoded = [json.loads(line) for line in responses]
        assert [d["id"] for d in decoded[:-1]] == [s.request_id for s in specs]
        for d in decoded[:-1]:
            assert d["ok"], d
            assert canonical_json(d["result"]) == expected[d["id"]]
        assert decoded[-1]["ok"] is False
        assert "invalid JSON" in decoded[-1]["error"]

    def test_concurrent_connections_share_the_service(self, thread_truth):
        specs, expected = thread_truth
        import threading

        with SolveService(workers=4) as service:
            transport = TcpTransport(port=0)
            host, port = transport.start(service)
            results: dict = {}

            def _client(name, subset):
                lines = [json.dumps(spec.to_json_dict()) for spec in subset]
                results[name] = request_lines_over_tcp(host, port, lines)

            threads = [
                threading.Thread(target=_client, args=(i, specs)) for i in range(3)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            transport.close()
        for responses in results.values():
            decoded = [json.loads(line) for line in responses]
            assert [d["id"] for d in decoded] == [s.request_id for s in specs]
            for d in decoded:
                assert canonical_json(d["result"]) == expected[d["id"]]

    def test_close_is_idempotent(self):
        with SolveService(workers=1) as service:
            transport = TcpTransport(port=0)
            transport.start(service)
            transport.close()
            transport.close()
        with pytest.raises(RuntimeError, match="not serving"):
            transport.address


# ---------------------------------------------------------------------------
# Process executor
# ---------------------------------------------------------------------------
class TestProcessExecutor:
    def test_process_matches_thread_truth(self, thread_truth):
        specs, expected = thread_truth
        with SolveService(workers=2, executor="process") as service:
            outcomes = service.solve_many(specs)
        for outcome in outcomes:
            assert outcome.ok, outcome.error
            assert canonical_json(outcome.result) == expected[outcome.request_id]
        # worker-side session reuse is reported through the response cache
        assert any(o.cache["session"] == "hit" for o in outcomes)

    def test_grouped_batch_through_the_process_pool(self, thread_truth):
        specs, expected = thread_truth
        with SolveService(workers=2, executor="process") as service:
            outcomes = run_batch(service, specs)
        assert [o.request_id for o in outcomes] == [s.request_id for s in specs]
        for outcome in outcomes:
            assert canonical_json(outcome.result) == expected[outcome.request_id]

    def test_errors_come_back_as_outcomes(self):
        edges = tuple(small_graph(90).edge_list())
        bad = [
            SolveSpec(request_id="unknown", edges=edges, algorithm="nope"),
            SolveSpec(request_id="bad-budget", edges=edges, budget=10**6),
            SolveSpec(request_id="no-file", edge_list="/does/not/exist.txt"),
        ]
        with SolveService(workers=1, executor="process") as service:
            outcomes = service.solve_many(bad)
        assert [o.ok for o in outcomes] == [False] * 3
        assert all(o.error for o in outcomes)

    def test_tcp_over_process_executor(self, thread_truth):
        """One corner of the acceptance grid: tcp transport x process pool."""
        specs, expected = thread_truth
        with SolveService(workers=2, executor="process") as service:
            transport = TcpTransport(port=0)
            host, port = transport.start(service)
            responses = request_lines_over_tcp(
                host, port, [json.dumps(spec.to_json_dict()) for spec in specs]
            )
            transport.close()
        decoded = [json.loads(line) for line in responses]
        for d in decoded:
            assert d["ok"], d
            assert canonical_json(d["result"]) == expected[d["id"]]

    def test_process_store_serves_repeats_without_dispatch(self):
        """The coordinator learns fingerprints from worker responses and
        answers identical deterministic specs from the shared store."""
        edges = tuple(small_graph(91).edge_list())
        spec = SolveSpec(request_id="r", edges=edges, algorithm="gas", budget=2)
        with SolveService(workers=1, executor="process") as service:
            first = service.solve(spec)
            second = service.solve(spec)
            stats = service.stats()
        assert first.ok and first.cache["store"] is False
        assert second.cache["store"] is True
        assert second.cache["session"] == "none"  # never dispatched
        assert second.fingerprint == first.fingerprint
        assert stats["store_hits"] == 1
        assert canonical_json(first.result) == canonical_json(second.result)

    def test_process_capacity_zero_honoured_and_store_covers(self):
        """session_capacity=0 must stay cold inside workers too — and the
        store is exactly what still serves the repeats."""
        spec = SolveSpec(
            request_id="r", dataset="college", algorithm="gas", budget=1
        )
        with SolveService(
            workers=1, executor="process", session_capacity=0
        ) as service:
            first = service.solve(spec)
            second = service.solve(spec)
        assert first.cache["session"] == "bypass"  # worker ran cold
        # dataset fingerprints are known up front (memoised registry
        # helper), so even the first repeat is answered pre-dispatch
        assert second.cache["store"] is True
        assert canonical_json(first.result) == canonical_json(second.result)

    def test_unpicklable_spec_does_not_poison_the_group(self):
        """A grouped batch must isolate a spec the pool cannot ship."""
        edges = tuple(small_graph(92).edge_list())
        good = SolveSpec(request_id="good", edges=edges, algorithm="gas", budget=1)
        bad = SolveSpec(
            request_id="bad", edges=edges, algorithm="gas", budget=1,
            params={"callback": lambda: None},  # unpicklable, same group
        )
        also_good = SolveSpec(request_id="also", edges=edges, algorithm="base", budget=1)
        with SolveService(workers=1, executor="process") as service:
            outcomes = run_batch(service, [good, bad, also_good])
        assert [o.request_id for o in outcomes] == ["good", "bad", "also"]
        assert outcomes[0].ok and outcomes[2].ok
        assert not outcomes[1].ok and "internal error" in outcomes[1].error

    def test_stale_dataset_registration_fails_loudly(self):
        """A dataset re-registered after the pool forked must not silently
        serve the old graph — the worker detects the coordinator's
        fingerprint mismatch and refuses."""
        from repro.datasets import DATASETS, DatasetSpec, register_dataset
        from repro.datasets import registry as registry_module

        g_old, g_new = small_graph(110), small_graph(111)
        name = "stale-test-dataset"
        names_before = set(DATASETS)
        try:
            register_dataset(
                DatasetSpec(
                    name=name, paper_name="Stale", description="test",
                    builder=lambda: g_old, size_class="small",
                )
            )
            with SolveService(workers=1, executor="process", memoize=False) as service:
                spec = SolveSpec(request_id="r", dataset=name, budget=1)
                first = service.solve(spec)  # forks the worker with g_old
                assert first.ok
                register_dataset(
                    DatasetSpec(
                        name=name, paper_name="Stale", description="test",
                        builder=lambda: g_new, size_class="small",
                    ),
                    replace=True,
                )
                second = service.solve(spec)
            assert not second.ok
            assert "stale dataset" in (second.error or "")
        finally:
            for extra in set(DATASETS) - names_before:
                spec_entry = DATASETS.pop(extra)
                registry_module._SPECS.remove(spec_entry)
            registry_module.load_dataset.cache_clear()
            registry_module.dataset_fingerprint.cache_clear()

    def test_unknown_executor_rejected(self):
        from repro.api import SpecError

        with pytest.raises(SpecError, match="unknown executor"):
            SolveService(executor="fibers")


# ---------------------------------------------------------------------------
# Every registered solver through every ingress path
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def grid_services():
    """The services every grid case shares: a thread service with the
    result store on, a process service, and a store-less thread service
    behind both transports (so a transport answer is solved, not read back)."""
    with SolveService(workers=2) as thread_service, SolveService(
        workers=2, executor="process"
    ) as process_service, SolveService(workers=2, memoize=False) as wire_service:
        tcp = TcpTransport(port=0)
        address = tcp.start(wire_service)
        try:
            yield thread_service, process_service, wire_service, address
        finally:
            tcp.close()


def grid_spec(solver_name: str) -> SolveSpec:
    """A seeded spec for ``solver_name`` on small_graph(80) (54 edges)."""
    solver = get_solver(solver_name)
    params = {}
    if solver.randomized:
        params["seed"] = 11
        if "repetitions" in (solver.params or ()):
            params["repetitions"] = 5
    return SolveSpec(
        request_id=f"grid/{solver_name}",
        edges=tuple(small_graph(80).edge_list()),
        algorithm=solver_name,
        budget=1 if solver_name == "exact" else 2,
        params=params,
    )


class TestEveryRoute:
    @pytest.mark.parametrize("solver_name", available_solvers())
    def test_canonical_payload_is_identical_on_every_route(self, grid_services, solver_name):
        thread_service, process_service, wire_service, (host, port) = grid_services
        spec = grid_spec(solver_name)
        line = json.dumps(spec.to_json_dict())
        direct = get_solver(solver_name)(small_graph(80), spec.budget, **spec.params_map)
        fresh = thread_service.solve(spec)
        stored = thread_service.solve(spec)
        assert fresh.ok and fresh.cache["store"] is False, fresh.canonical()
        assert stored.cache["store"] is True
        stdout = io.StringIO()
        StdioTransport(stdin=io.StringIO(line + "\n"), stdout=stdout).serve(wire_service)
        (tcp_line,) = request_lines_over_tcp(host, port, [line])
        payloads = {
            "api": api.solve(spec).result,
            "thread": fresh.result,
            "stored": stored.result,
            "process": process_service.solve(spec).result,
            "stdio": json.loads(stdout.getvalue())["result"],
            "tcp": json.loads(tcp_line)["result"],
        }
        expected = canonical_json(result_to_json(direct))
        assert {route: canonical_json(payload) for route, payload in payloads.items()} == {
            route: expected for route in payloads
        }


# ---------------------------------------------------------------------------
# Shared cross-graph result store
# ---------------------------------------------------------------------------
class TestResultStore:
    def test_unit_behaviour(self):
        store = ResultStore(capacity=2)
        assert store.get("a") is None
        store.put("a", {"x": 1})
        payload = store.get("a")
        assert payload == {"x": 1}
        payload["x"] = 99  # the store must keep the pristine original
        assert store.get("a") == {"x": 1}
        store.put("b", {"x": 2})
        store.put("c", {"x": 3})  # evicts the LRU entry
        assert len(store) == 2
        stats = store.stats()
        assert stats["hits"] == 2 and stats["capacity"] == 2

    def test_zero_capacity_disables(self):
        store = ResultStore(capacity=0)
        store.put("a", {"x": 1})
        assert store.get("a") is None
        assert not store.enabled

    def test_store_survives_session_eviction(self):
        graphs = [small_graph(95 + i) for i in range(3)]
        specs = [
            SolveSpec(
                request_id=f"g{i}-{repeat}",
                edges=tuple(graph.edge_list()),
                algorithm="gas",
                budget=2,
            )
            for repeat in range(2)
            for i, graph in enumerate(graphs)
        ]
        # capacity 1: every graph evicts the previous session, so repeats
        # find a cold session — and a warm store.
        with SolveService(workers=1, session_capacity=1) as service:
            outcomes = [service.solve(spec) for spec in specs]
            stats = service.stats()
        repeats = outcomes[3:]
        assert all(o.cache["store"] for o in repeats)
        assert stats["store_hits"] == 3
        assert service.session_info()["result_store"]["hits"] == 3
        firsts = {o.request_id.split("-")[0]: o for o in outcomes[:3]}
        for outcome in repeats:
            first = firsts[outcome.request_id.split("-")[0]]
            assert canonical_json(outcome.result) == canonical_json(first.result)

    def test_store_gated_like_the_memo(self):
        edges = tuple(small_graph(99).edge_list())
        unseeded = SolveSpec(
            request_id="u", edges=edges, algorithm="rand", budget=2,
            params={"repetitions": 2},
        )
        with SolveService(workers=1, session_capacity=1) as service:
            service.solve(unseeded)
            # evict the session: a repeat can only come from the store
            service.solve(
                SolveSpec(request_id="other", edges=tuple(small_graph(98).edge_list()), budget=1)
            )
            second = service.solve(unseeded)
            assert second.cache["store"] is False
        with SolveService(workers=1, memoize=False) as service:
            assert not service.store.enabled  # memoize=False disables the store

    def test_capacity_zero_bypass_keeps_the_store_live(self):
        """session_capacity=0 is the cold per-request mode, not a collision:
        the store must keep serving there (it is the only reuse left)."""
        edges = tuple(small_graph(97).edge_list())
        spec = SolveSpec(request_id="r", edges=edges, algorithm="gas", budget=2)
        with SolveService(workers=1, session_capacity=0) as service:
            first = service.solve(spec)
            second = service.solve(spec)
        assert first.cache["session"] == "bypass"
        assert first.cache["store"] is False
        assert second.cache["session"] == "bypass"
        assert second.cache["store"] is True  # the store outlives the session
        assert canonical_json(first.result) == canonical_json(second.result)

    def test_collision_bypass_never_touches_the_store(self, monkeypatch):
        from repro.api import resolve as resolve_module

        monkeypatch.setattr(
            resolve_module, "graph_fingerprint", lambda _graph: "collide"
        )
        graph_a, graph_b = small_graph(101), small_graph(102)
        spec_a = SolveSpec(request_id="a", edges=tuple(graph_a.edge_list()), budget=2)
        spec_b = SolveSpec(request_id="b", edges=tuple(graph_b.edge_list()), budget=2)
        with SolveService(workers=1) as service:
            first = service.solve(spec_a)
            second = service.solve(spec_b)
        assert first.ok and second.ok
        # same fingerprint, different graphs: the bypass path must not have
        # served b from a's stored payload
        assert second.cache["session"] == "bypass"
        assert second.cache["store"] is False
        assert canonical_json(first.result) != canonical_json(second.result)
