"""Cluster-tier invariants: ring, supervision, routing, aggregation (PR 10).

The load-bearing guarantees:

* the consistent-hash ring is deterministic and minimally disruptive
  under membership change (warm shards survive everyone else's crash);
* a routed outcome is byte-identical (``canonical()``) to a direct
  single-service solve — for every registered solver, on thread *and*
  process backends, and for the surviving requests of a batch whose
  owning backend was killed mid-stream;
* repeats are answered from the router-tier cross-backend result store;
* cluster-wide metrics merge per-backend registries with sane quantiles
  (p50 ≤ p95 ≤ p99) and counters equal to the per-backend sums.
"""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
import time

import pytest

from repro.api.spec import SolveSpec
from repro.cluster import (
    BackendPool,
    HashRing,
    InProcessBackend,
    RouterService,
    SubprocessBackend,
    merge_histogram_snapshots,
    merge_metrics_snapshots,
    quantile_from_snapshot,
)
from repro.core.engine import available_solvers, solver_table
from repro.graph.generators import community_graph
from repro.obs.metrics import MetricsRegistry
from repro.service import SolveService, TcpTransport
from repro.service.faults import (
    FAULT_SOLVER,
    install_fault_solver,
    uninstall_fault_solver,
)
from repro.service.resilience import RetryPolicy


def canonical_json(outcome) -> str:
    return json.dumps(outcome.canonical(), sort_keys=True)


def small_edges(seed: int):
    graph = community_graph([10, 8], p_in=0.7, p_out=0.05, seed=seed)
    return [list(edge) for edge in graph.edges()]


def solver_specs(edges, budget: int = 1, seed: int = 1):
    """One spec per registered solver (randomized ones get a seed so they
    are deterministic and memoizable — the byte-identity comparand)."""
    table = solver_table()
    specs = []
    for name in available_solvers():
        params = {"seed": seed} if table[name].randomized else {}
        specs.append(
            SolveSpec(
                edges=edges,
                algorithm=name,
                budget=budget,
                params=params,
                request_id=f"req-{name}",
            )
        )
    return specs


# ---------------------------------------------------------------------------
# Ring
# ---------------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_across_construction_order(self):
        keys = [f"fingerprint-{i}" for i in range(300)]
        ring_a = HashRing(["alpha", "beta", "gamma"])
        ring_b = HashRing(["gamma", "alpha", "beta"])
        assert ring_a.ownership(keys) == ring_b.ownership(keys)

    def test_successors_start_at_owner_and_cover_everyone(self):
        ring = HashRing(["a", "b", "c", "d"])
        for key in ("k1", "k2", "k3"):
            chain = ring.successors(key)
            assert chain[0] == ring.owner(key)
            assert sorted(chain) == ["a", "b", "c", "d"]

    def test_membership_change_is_minimal_and_reversible(self):
        keys = [f"fp-{i}" for i in range(500)]
        ring = HashRing(["a", "b", "c"])
        before = ring.ownership(keys)
        ring.remove("b")
        after = ring.ownership(keys)
        moved = {k for k in keys if before[k] != after[k]}
        # Only keys the departed backend owned may move, and they must
        # move to what was already their next successor.
        assert moved == {k for k in keys if before[k] == "b"}
        ring.add("b")
        assert ring.ownership(keys) == before

    def test_adding_a_backend_only_steals_keys_for_itself(self):
        keys = [f"fp-{i}" for i in range(500)]
        ring = HashRing(["a", "b", "c"])
        before = ring.ownership(keys)
        ring.add("d")
        after = ring.ownership(keys)
        assert all(after[k] == "d" for k in keys if before[k] != after[k])

    def test_spread_is_reasonably_balanced(self):
        keys = [f"fp-{i}" for i in range(3000)]
        counts = HashRing(["a", "b", "c", "d"]).spread(keys)
        assert sum(counts.values()) == len(keys)
        assert min(counts.values()) > 0

    def test_empty_ring_and_bad_args(self):
        ring = HashRing()
        with pytest.raises(LookupError):
            ring.owner("x")
        with pytest.raises(ValueError):
            HashRing(replicas=0)
        ring.add("a")
        with pytest.raises(ValueError):
            ring.add("a")
        with pytest.raises(KeyError):
            ring.remove("zzz")


# ---------------------------------------------------------------------------
# Telemetry merging
# ---------------------------------------------------------------------------
class TestTelemetryMerge:
    def _hist_snapshot(self, values):
        registry = MetricsRegistry()
        hist = registry.histogram("x.s")
        for value in values:
            hist.observe(value)
        return hist.snapshot()

    def test_merged_histogram_matches_single_histogram(self):
        values_a = [0.01, 0.02, 0.3]
        values_b = [0.05, 0.8]
        merged = merge_histogram_snapshots(
            [self._hist_snapshot(values_a), self._hist_snapshot(values_b)]
        )
        combined = self._hist_snapshot(values_a + values_b)
        assert merged["sum"] == pytest.approx(combined["sum"])
        for key in ("count", "min", "max", "buckets", "p50", "p95", "p99"):
            assert merged[key] == combined[key], key

    def test_quantiles_ordered_and_clamped(self):
        snapshot = self._hist_snapshot([0.001, 0.01, 0.1, 1.0, 2.0])
        assert snapshot["min"] <= snapshot["p50"] <= snapshot["p95"]
        assert snapshot["p95"] <= snapshot["p99"] <= snapshot["max"]
        assert quantile_from_snapshot(snapshot, 0.0) >= snapshot["min"]
        assert quantile_from_snapshot(snapshot, 1.0) <= snapshot["max"]

    def test_merge_registry_snapshots_sums_counters(self):
        reg_a, reg_b = MetricsRegistry(), MetricsRegistry()
        reg_a.counter("service.requests").inc(3)
        reg_b.counter("service.requests").inc(4)
        reg_b.counter("service.errors").inc()
        reg_a.gauge("sessions.size").set(2)
        reg_b.gauge("sessions.size").set(5)
        merged = merge_metrics_snapshots([reg_a.snapshot(), reg_b.snapshot()])
        assert merged["counters"]["service.requests"] == 7
        assert merged["counters"]["service.errors"] == 1
        assert merged["gauges"]["sessions.size"] == 7

    def test_mismatched_bucket_bounds_refuse_to_merge(self):
        registry = MetricsRegistry()
        small = registry.histogram("a", buckets=[0.1, 1.0])
        small.observe(0.5)
        other = MetricsRegistry().histogram("b")
        other.observe(0.5)
        with pytest.raises(ValueError):
            merge_histogram_snapshots([small.snapshot(), other.snapshot()])

    def test_empty_merge(self):
        merged = merge_histogram_snapshots([])
        assert merged["count"] == 0 and merged["p99"] == 0.0


# ---------------------------------------------------------------------------
# Router over in-process backends
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def cluster3():
    """A 3-backend thread-executor cluster plus its router."""
    pool = BackendPool(
        probe_interval_s=30.0,  # tests drive probe_once() explicitly
        retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.01),
    )
    for index in range(3):
        pool.add_managed(
            f"b{index}", InProcessBackend(workers=2, session_capacity=4)
        )
    router = RouterService(pool, workers=4)
    yield pool, router
    router.close()
    pool.close()


@pytest.fixture(scope="module")
def direct_service():
    with SolveService(workers=2) as service:
        yield service


class TestRoutedIdentity:
    def test_routed_byte_identical_to_direct_all_solvers(
        self, cluster3, direct_service
    ):
        _pool, router = cluster3
        specs = solver_specs(small_edges(seed=11))
        routed = router.solve_many(specs)
        for spec, outcome in zip(specs, routed):
            direct = direct_service.solve(spec)
            assert outcome.ok, (spec.algorithm, outcome.error)
            assert canonical_json(outcome) == canonical_json(direct), spec.algorithm

    def test_same_graph_routes_to_one_backend(self, cluster3):
        _pool, router = cluster3
        specs = solver_specs(small_edges(seed=12), budget=2)
        routed = router.solve_many(specs)
        backends = {outcome.cache.get("backend") for outcome in routed}
        backends.discard(None)  # store hits carry no backend tag
        assert len(backends) == 1

    def test_distinct_graphs_spread_over_backends(self, cluster3):
        _pool, router = cluster3
        owners = set()
        for seed in range(20, 40):
            spec = SolveSpec(edges=small_edges(seed=seed), algorithm="gas", budget=1)
            owners.add(router.ring.owner(router.fingerprint_of(spec)))
            if len(owners) == 3:
                break
        assert len(owners) > 1

    def test_router_store_answers_repeat(self, cluster3):
        _pool, router = cluster3
        spec = SolveSpec(
            edges=small_edges(seed=13),
            algorithm="gas",
            budget=1,
            request_id="repeat-1",
        )
        first = router.solve(spec)
        assert first.ok and "backend" in first.cache
        hits_before = router.stats()["counters"]["store_hits"]
        second = router.solve(spec)
        assert second.ok
        assert second.cache.get("router_store") is True
        assert router.stats()["counters"]["store_hits"] == hits_before + 1
        assert canonical_json(first) == canonical_json(second)

    def test_invalid_spec_fails_structurally_not_fatally(self, cluster3):
        _pool, router = cluster3
        outcome = router.solve(
            SolveSpec(dataset="no-such-dataset", algorithm="gas", budget=1)
        )
        assert not outcome.ok
        assert outcome.error_kind == "invalid"
        assert outcome.retryable is False


@pytest.mark.slow
class TestRoutedIdentityProcessBackends:
    def test_routed_byte_identical_on_process_backends(self):
        pool = BackendPool(probe_interval_s=30.0)
        for index in range(2):
            pool.add_managed(
                f"p{index}",
                InProcessBackend(workers=1, executor="process", session_capacity=2),
            )
        router = RouterService(pool, workers=2)
        try:
            specs = solver_specs(small_edges(seed=14))
            routed = router.solve_many(specs)
            with SolveService(workers=1) as direct:
                for spec, outcome in zip(specs, routed):
                    assert outcome.ok, (spec.algorithm, outcome.error)
                    assert canonical_json(outcome) == canonical_json(
                        direct.solve(spec)
                    ), spec.algorithm
        finally:
            router.close()
            pool.close()


class TestFailover:
    def test_backend_kill_fails_over_and_respawns(self):
        pool = BackendPool(
            probe_interval_s=30.0,
            retry_policy=RetryPolicy(max_attempts=3, base_delay_s=0.01),
        )
        for index in range(3):
            pool.add_managed(
                f"b{index}", InProcessBackend(workers=2, session_capacity=4)
            )
        router = RouterService(pool, workers=4)
        try:
            edges = small_edges(seed=15)
            probe = SolveSpec(edges=edges, algorithm="gas", budget=1)
            fingerprint = router.fingerprint_of(probe)
            owner = router.ring.owner(fingerprint)
            successor = router.ring.successors(fingerprint)[1]
            pool.kill(owner)

            spec = SolveSpec(
                edges=edges, algorithm="gas", budget=2, request_id="post-kill"
            )
            outcome = router.solve(spec)
            assert outcome.ok
            assert outcome.cache.get("backend") == successor
            with SolveService(workers=1) as direct:
                assert canonical_json(outcome) == canonical_json(direct.solve(spec))
            # The transport failure marked the owner down and counted.
            assert not pool.is_up(owner)
            counters = router.stats()["counters"]
            assert counters["reroutes"] >= 1
            assert counters["backend_failures"] >= 1

            # Supervision respawns the managed backend (new port, cold
            # shard) and the owner takes its keys back.
            status = pool.probe_once()
            assert status[owner] == "up"
            assert pool.get(owner).restarts == 1
            back = SolveSpec(
                edges=edges, algorithm="gas", budget=3, request_id="post-respawn"
            )
            outcome_back = router.solve(back)
            assert outcome_back.ok
            assert outcome_back.cache.get("backend") == owner
        finally:
            router.close()
            pool.close()

    def test_supervision_counters_reach_the_router_scrape(self):
        pool = BackendPool(probe_interval_s=30.0)
        for index in range(2):
            pool.add_managed(
                f"b{index}", InProcessBackend(workers=1, session_capacity=2)
            )
        router = RouterService(pool, workers=2)
        try:
            pool.kill("b0")
            assert pool.probe_once() == {"b0": "up", "b1": "up"}
            snapshot = router.metrics_snapshot()
            assert snapshot["counters"]["cluster.respawns"] >= 1
            assert snapshot["counters"]["cluster.markdowns"] >= 1
            assert snapshot["gauges"]["cluster.backends_up"] == 2
        finally:
            router.close()
            pool.close()

    def test_mid_batch_kill_leaves_survivors_byte_identical(self):
        """Kill one backend between two waves of a batch: every request
        not owned by the dead backend is untouched, the dead backend's
        requests fail over, and *all* outcomes stay byte-identical."""
        pool = BackendPool(probe_interval_s=30.0)
        for index in range(3):
            pool.add_managed(
                f"b{index}", InProcessBackend(workers=2, session_capacity=8)
            )
        router = RouterService(pool, workers=4)
        try:
            graphs = {seed: small_edges(seed=seed) for seed in range(30, 36)}
            owners = {
                seed: router.ring.owner(
                    router.fingerprint_of(
                        SolveSpec(edges=edges, algorithm="gas", budget=1)
                    )
                )
                for seed, edges in graphs.items()
            }
            victim = owners[30]
            wave = [
                SolveSpec(
                    edges=edges,
                    algorithm="gas",
                    budget=1,
                    request_id=f"wave-{seed}",
                )
                for seed, edges in graphs.items()
            ]
            first = router.solve_many(wave)
            assert all(outcome.ok for outcome in first)

            pool.kill(victim)
            second_wave = [
                SolveSpec(
                    edges=edges,
                    algorithm="gas",
                    budget=2,
                    request_id=f"wave2-{seed}",
                )
                for seed, edges in graphs.items()
            ]
            second = router.solve_many(second_wave)
            with SolveService(workers=2) as direct:
                for spec, outcome, seed in zip(
                    second_wave, second, graphs.keys()
                ):
                    assert outcome.ok, (seed, outcome.error)
                    assert canonical_json(outcome) == canonical_json(
                        direct.solve(spec)
                    )
                    if owners[seed] != victim:
                        # Survivor shards never saw the crash.
                        assert outcome.cache.get("backend") == owners[seed]
                    else:
                        assert outcome.cache.get("backend") != victim
        finally:
            router.close()
            pool.close()

    def test_all_backends_down_returns_structured_failure(self):
        pool = BackendPool(probe_interval_s=30.0)
        pool.attach("ghost", "127.0.0.1", 1)  # nothing listens on port 1
        router = RouterService(pool, workers=1)
        try:
            outcome = router.solve(
                SolveSpec(edges=small_edges(seed=16), algorithm="gas", budget=1)
            )
            assert not outcome.ok
            assert outcome.error_kind == "worker_crash"
            assert outcome.retryable is True
            assert outcome.cache.get("route_exhausted") is True
        finally:
            router.close()
            pool.close()


@pytest.fixture
def fault_solver():
    """The test-only fault solver, for this test only (other tests assert
    exact solver tables)."""
    install_fault_solver()
    yield
    uninstall_fault_solver()


def slow_spec(request_id: str, sleep_s: float) -> SolveSpec:
    return SolveSpec(
        edges=small_edges(seed=17),
        algorithm=FAULT_SOLVER,
        budget=2,
        params={"sleep_s": sleep_s},
        request_id=request_id,
    )


@pytest.mark.usefixtures("fault_solver")
class TestSlowAndInFlight:
    def test_slow_backend_times_out_without_being_marked_down(self):
        """A reply that outlasts the request timeout is a retryable
        ``timeout``: the backend is slow, not dead, so it stays up and the
        solve is not re-run on its successor."""
        pool = BackendPool(probe_interval_s=30.0)
        for index in range(2):
            pool.add_managed(
                f"b{index}", InProcessBackend(workers=2, session_capacity=2)
            )
        router = RouterService(pool, workers=2, request_timeout_s=0.5)
        try:
            outcome = router.solve(slow_spec("slow", sleep_s=0.8))
            assert not outcome.ok
            assert outcome.error_kind == "timeout"
            assert outcome.retryable is True
            counters = router.stats()["counters"]
            assert counters["reroutes"] == 0
            assert counters["backend_failures"] == 0
            assert counters["exhausted"] == 0
            assert pool.is_up("b0") and pool.is_up("b1")
            # The timed-out connection was closed: the late reply of the
            # slow solve cannot be read as the answer to the next request.
            fast = slow_spec("fast", sleep_s=0.0)
            answer = router.solve(fast)
            assert answer.ok, answer.error
            assert answer.request_id == "fast"
            assert answer.cache.get("backend") == outcome.cache.get("backend")
            with SolveService(workers=1) as direct:
                assert canonical_json(answer) == canonical_json(direct.solve(fast))
        finally:
            router.close()
            pool.close()

    @pytest.mark.parametrize("op", ["health", "metrics"])
    def test_a_silent_backend_is_reported_down_by_control_requests(self, op):
        """A backend that takes the health or metrics line but never replies
        within ``probe_timeout_s`` (wedged, stopped) is reported down; the
        cluster-wide answer still comes back for the others."""
        silent = socket.create_server(("127.0.0.1", 0))  # listens, never replies
        pool = BackendPool(probe_interval_s=30.0, probe_timeout_s=0.3)
        pool.add_managed("b0", InProcessBackend(workers=1, session_capacity=1))
        pool.attach("silent", *silent.getsockname()[:2])
        router = RouterService(pool, workers=1)
        try:
            if op == "health":
                health = router.health()
                assert health["backends"]["silent"]["status"] == "down"
                assert health["backends"]["b0"]["health"]["status"] == "ok"
                assert health["cluster"]["up"] == 1
            else:
                snapshot = router.metrics_snapshot()
                assert snapshot["cluster"]["backends"]["silent"] == {"status": "down"}
                assert snapshot["cluster"]["backends"]["b0"]["status"] == "ok"
            assert not pool.is_up("silent")
            assert pool.is_up("b0")
        finally:
            router.close()
            pool.close()
            silent.close()

    def test_kill_fails_the_in_flight_request_over(self):
        """Killing the owner while it solves cuts its connection: the
        router re-runs the request on the ring successor, whose answer is
        byte-identical to a direct solve."""
        pool = BackendPool(probe_interval_s=30.0)
        for index in range(3):
            pool.add_managed(
                f"b{index}", InProcessBackend(workers=2, session_capacity=2)
            )
        router = RouterService(pool, workers=2)
        try:
            spec = slow_spec("in-flight", sleep_s=0.5)
            fingerprint = router.fingerprint_of(spec)
            owner = router.ring.owner(fingerprint)
            future = router.submit(spec)
            time.sleep(0.2)
            pool.kill(owner)
            outcome = future.result(timeout=30)
            assert outcome.ok, outcome.error
            assert outcome.cache.get("backend") == router.ring.successors(fingerprint)[1]
            assert router.stats()["counters"]["reroutes"] >= 1
            with SolveService(workers=1) as direct:
                assert canonical_json(outcome) == canonical_json(direct.solve(spec))
        finally:
            router.close()
            pool.close()


class TestAggregatedTelemetry:
    def test_metrics_merge_across_backends(self, cluster3):
        pool, router = cluster3
        specs = [
            SolveSpec(
                edges=small_edges(seed=seed),
                algorithm="gas",
                budget=1,
                request_id=f"metrics-{seed}",
            )
            for seed in range(40, 46)
        ]
        assert all(outcome.ok for outcome in router.solve_many(specs))
        snapshot = router.metrics_snapshot()
        assert snapshot["cluster"]["total"] == 3
        # The cluster-wide request counter is the per-backend sum.
        per_backend = [
            entry["requests"]
            for entry in snapshot["cluster"]["backends"].values()
            if entry.get("status") != "down"
        ]
        assert snapshot["counters"]["service.requests"] == sum(per_backend)
        route_hist = snapshot["histograms"]["router.route_s"]
        assert route_hist["count"] >= len(specs)
        assert route_hist["p50"] <= route_hist["p95"] <= route_hist["p99"]
        solve_hist = snapshot["histograms"]["service.solve_s"]
        assert solve_hist["p50"] <= solve_hist["p95"] <= solve_hist["p99"]

    def test_health_rolls_up_backends(self, cluster3):
        pool, router = cluster3
        health = router.health()
        assert health["status"] == "ok"
        assert health["cluster"]["up"] == 3
        assert sorted(health["ring"]["backends"]) == sorted(pool.ids())
        for backend_id in pool.ids():
            entry = health["backends"][backend_id]
            assert entry["status"] == "up"
            assert entry["health"]["status"] in ("ok", "draining")

    def test_prometheus_rendering_of_cluster_snapshot(self, cluster3):
        from repro.obs.metrics import prometheus_from_snapshot

        _pool, router = cluster3
        text = prometheus_from_snapshot(router.metrics_snapshot())
        assert "router_route_s" in text
        assert "service_requests" in text


class TestServeStreamCompat:
    """The router behind the unchanged transports + control ops."""

    def test_router_behind_tcp_transport(self, cluster3, direct_service):
        from repro.service import request_lines_over_tcp

        _pool, router = cluster3
        transport = TcpTransport(port=0)
        host, port = transport.start(router)
        try:
            assert transport.bound_port == port
            specs = solver_specs(small_edges(seed=17), budget=2)
            lines = [spec.canonical_json() for spec in specs]
            lines.append(json.dumps({"op": "health"}))
            lines.append(json.dumps({"op": "metrics"}))
            replies = request_lines_over_tcp(host, port, lines)
            assert len(replies) == len(specs) + 2
            for spec, line in zip(specs, replies):
                payload = json.loads(line)
                assert payload["ok"], (spec.algorithm, payload.get("error"))
                direct = direct_service.solve(spec)
                from repro.api import canonical_result

                assert canonical_result(payload["result"]) == canonical_result(
                    direct.result
                )
            health = json.loads(replies[-2])
            assert health["op"] == "health" and health["role"] == "router"
            metrics = json.loads(replies[-1])
            assert metrics["op"] == "metrics" and "histograms" in metrics
        finally:
            transport.close()


class TestSubprocessBackendEnv:
    def test_child_pythonpath_starts_at_the_package_parent(self, monkeypatch, tmp_path):
        # A parent that found repro through sys.path alone (no PYTHONPATH)
        # must still hand its backends a PYTHONPATH that imports repro.
        monkeypatch.delenv("PYTHONPATH", raising=False)
        env = SubprocessBackend()._env()
        first = env["PYTHONPATH"].split(os.pathsep)[0]
        assert os.path.isfile(os.path.join(first, "repro", "__init__.py"))
        child = subprocess.run(
            [sys.executable, "-c", "import repro.cli"],
            env=env,
            cwd=tmp_path,
            capture_output=True,
            text=True,
        )
        assert child.returncode == 0, child.stderr


@pytest.mark.slow
class TestSubprocessBackend:
    def test_spawn_route_kill(self):
        pool = BackendPool(probe_interval_s=30.0)
        backend = pool.add_managed(
            "sub-0", SubprocessBackend(serve_args=["--workers", "2"])
        )
        router = RouterService(pool, workers=2)
        try:
            assert backend.describe()["pid"] is not None
            spec = SolveSpec(
                edges=small_edges(seed=18),
                algorithm="gas",
                budget=1,
                request_id="sub-1",
            )
            outcome = router.solve(spec)
            assert outcome.ok
            assert outcome.cache.get("backend") == "sub-0"
            with SolveService(workers=1) as direct:
                assert canonical_json(outcome) == canonical_json(direct.solve(spec))
        finally:
            router.close()
            pool.close()
        assert not backend.launcher.alive()
