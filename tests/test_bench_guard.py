"""Guards on ``BENCH_kernel.json``, the recorded benchmark history.

Each optimisation step recorded one section of comparable rows there.
The file is frozen: nothing re-runs its sections, and new numbers come from
``perfbench/`` runs recorded in ``docs/PERFORMANCE.md``.  These tests keep
asserting what the recorded rows showed when they were measured.
"""

from __future__ import annotations

import json
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestWriteReport:
    def test_repo_trajectory_still_has_all_generations(self):
        """The recorded BENCH_kernel.json keeps every section."""
        data = json.loads(
            (REPO_ROOT / "BENCH_kernel.json").read_text(encoding="utf-8")
        )
        assert {
            "decomposition", "followers", "gas", "engine", "engine_v2", "service",
            "api", "resilience", "kernel_v2", "world", "obs", "cluster",
        } <= set(data)
        assert data["resilience"]["summary"]["meets_steady_state_target"] is True
        assert data["engine_v2"]["summary"]["meets_gas_target"] is True
        assert data["engine_v2"]["summary"]["base_at_parity"] is True
        assert data["engine_v2"]["summary"]["exact_at_parity"] is True


class TestServiceSection:
    """The 'service' section: warm serving and batched determinism."""

    def test_repo_trajectory_has_the_service_section(self):
        data = json.loads(
            (REPO_ROOT / "BENCH_kernel.json").read_text(encoding="utf-8")
        )
        assert {"decomposition", "followers", "gas", "engine", "engine_v2", "service"} <= set(data)
        service = data["service"]["summary"]
        assert service["meets_warm_target"] is True
        assert service["warm_vs_cold_speedup_min"] >= 3.0
        assert service["determinism_identical"] is True
        assert data["service"]["paper_budget"]["budget"] == 100
        assert data["summary"]["meets_service_warm_target"] is True


class TestApiSection:
    """The 'api' section: the identity grid and the warm-path rows."""

    def test_repo_trajectory_records_the_api_section(self):
        data = json.loads(
            (REPO_ROOT / "BENCH_kernel.json").read_text(encoding="utf-8")
        )
        assert "api" in data
        api_section = data["api"]
        assert api_section["identity_grid"]["identical"] is True
        # every registered solver must have an identity row covering the
        # full path grid
        from repro.core.engine import available_solvers

        assert set(api_section["identity_grid"]["solvers"]) == set(available_solvers())
        assert set(api_section["identity_grid"]["paths"]) == {
            "solve_request", "api", "thread", "process", "stdio", "tcp",
        }
        # the warm-path rows must show the mechanism (zero round-1 recomputes)
        assert api_section["summary"]["gas_warm_round1_recomputes"] == 0
        assert api_section["summary"]["gas_warm_path_speedup_min"] >= 1.0
        # the process-vs-thread row records its hardware context honestly
        assert api_section["executors"]["cpu_count"] >= 1


class TestKernelV2Section:
    """The 'kernel_v2' section: the recorded rows and a live
    (conservatively-margined) cold-decomposition guard."""

    def test_repo_trajectory_records_the_kernel_v2_section(self):
        data = json.loads(
            (REPO_ROOT / "BENCH_kernel.json").read_text(encoding="utf-8")
        )
        assert "kernel_v2" in data
        section = data["kernel_v2"]
        # the PR 7 acceptance: cold >= 5x on BOTH large stand-ins, recorded
        assert set(section["decomposition"]) == {"patents", "pokec"}
        assert section["summary"]["meets_cold_target"] is True
        assert section["summary"]["cold_speedup_min"] >= 5.0
        assert section["summary"]["meets_gas_target"] is True
        assert section["summary"]["resolved_backend"] in ("vectorized", "numba")
        for row in section["decomposition"].values():
            assert row["cold"]["speedup"] >= 5.0
            assert row["anchored_sequence"]["speedup"] >= 5.0
        # the PR 1 sections are untouched history
        assert {"decomposition", "followers", "gas", "engine"} <= set(data)
        assert data["summary"]["kernel_v2_meets_cold_target"] is True

    def test_cold_decomposition_guard(self):
        """Live guard: the array kernel must stay clearly ahead of the
        reference on a cold decomposition.  The margin (1.5x on the college
        stand-in, best-of-5 each side, interleaved) sits far below the
        recorded ~3x so scheduler noise cannot flake it, while a regression
        that loses the vectorised path entirely still trips it."""
        import time

        from repro.datasets.registry import load_dataset
        from repro.oracles import truss_decomposition_reference
        from repro.truss.decomposition import truss_decomposition

        graph = load_dataset("college")
        truss_decomposition(graph.copy())
        truss_decomposition_reference(graph)
        reference = kernel = float("inf")
        for _ in range(5):
            start = time.perf_counter()
            truss_decomposition_reference(graph)
            reference = min(reference, time.perf_counter() - start)
            fresh = graph.copy()
            start = time.perf_counter()
            truss_decomposition(fresh)
            kernel = min(kernel, time.perf_counter() - start)
        assert reference >= 1.5 * kernel, (
            f"cold decomposition guard: reference {reference * 1000:.2f}ms vs "
            f"kernel {kernel * 1000:.2f}ms (< 1.5x)"
        )


class TestWorldSection:
    """The 'world' section: sweep wall time, per-family engine-speedup
    spread and zero violations."""

    def test_repo_trajectory_records_the_world_section(self):
        data = json.loads(
            (REPO_ROOT / "BENCH_kernel.json").read_text(encoding="utf-8")
        )
        assert "world" in data
        section = data["world"]
        # the PR 8 acceptance: >= 5 families swept, rig clean, wall recorded
        assert len(section["sweep"]["families"]) >= 5
        assert section["sweep"]["wall_s"] > 0
        assert section["sweep"]["rows"] > 0
        assert section["invariants"]["violations"] == 0
        assert section["invariants"]["points_checked"] >= section["sweep"]["points"]
        spread = section["engine_speedup_by_family"]
        assert len(spread) >= 5
        for entry in spread.values():
            assert entry["min"] <= entry["median"] <= entry["max"]
            assert entry["points"] >= 1
        assert section["summary"]["violations"] == 0
        # earlier sections are untouched history
        assert {"decomposition", "engine", "kernel_v2"} <= set(data)
        assert data["summary"]["world_violations"] == 0


class TestObsSection:
    """The 'obs' section: warm-path overhead within target, byte identity
    and a real trace."""

    def test_repo_trajectory_records_the_obs_section(self):
        data = json.loads(
            (REPO_ROOT / "BENCH_kernel.json").read_text(encoding="utf-8")
        )
        assert "obs" in data
        section = data["obs"]
        # the PR 9 acceptance: <= 3% warm-path overhead, byte identity, and
        # a trace that really reaches the engine's incremental peel
        assert section["overhead"]["overhead_pct"] <= section["overhead"]["target_pct"]
        assert section["overhead"]["target_pct"] == 3.0
        assert section["overhead"]["uninstrumented_s"] > 0
        assert section["identity"]["identical"] is True
        assert section["trace"]["recorded"] is True
        assert "engine.solve_spec" in section["trace"]["span_names"]
        assert "service.execute" in section["trace"]["span_names"]
        # a live scrape covers scheduler, session cache, store and engine
        counters = set(section["exposition"]["counters"])
        assert {"service.requests", "sessions.hits", "store.hits", "engine.solves"} <= counters
        histograms = set(section["exposition"]["histograms"])
        assert {"service.solve_s", "service.queue_wait_s"} <= histograms
        # earlier sections are untouched history
        assert {"decomposition", "engine", "kernel_v2", "world"} <= set(data)
        assert data["summary"]["obs_identity"] is True
        assert data["summary"]["obs_warm_path_overhead_pct"] <= 3.0


class TestClusterSection:
    """The 'cluster' section: routed byte identity, failover, warm-shard
    hit rate and the honestly-gated process-vs-thread retry."""

    def test_repo_trajectory_records_the_cluster_section(self):
        data = json.loads(
            (REPO_ROOT / "BENCH_kernel.json").read_text(encoding="utf-8")
        )
        assert "cluster" in data
        section = data["cluster"]
        # the PR 10 acceptance: routed == direct for every registered
        # solver on both executors, survivors byte-identical after a
        # mid-batch kill, repeats answered at the router tier
        from repro.core.engine import available_solvers

        assert section["identity"]["identical"] is True
        assert set(section["identity"]["solvers"]) == set(available_solvers())
        assert set(section["identity"]["executors"]) == {"thread", "process"}
        assert section["failover"]["survivors_identical"] is True
        assert section["failover"]["reroutes"] >= 1
        assert section["store"]["repeat_hit"] is True
        assert section["store"]["identical"] is True
        # the warm-shard workload: repeat rounds must hit their shard's
        # warm session (1 cold miss then warm hits per graph per shard)
        throughput = section["throughput"]
        assert throughput["three_backend"]["warm_hit_rate"] >= 0.5
        assert throughput["one_backend"]["requests"] == throughput[
            "three_backend"
        ]["requests"]
        # the hardware context is recorded honestly, and the re-attempted
        # process-vs-thread row is gated on it rather than faked
        assert throughput["cpu_count"] >= 1
        retry = section["process_vs_thread_retry"]
        assert retry["cpu_count"] == throughput["cpu_count"]
        assert retry["target"] == 1.8
        if retry["attempted"]:
            assert "speedup" in retry
        else:
            assert retry["cpu_count"] < 2 and "reason" in retry
        # earlier sections are untouched history
        assert {"decomposition", "engine", "kernel_v2", "world", "obs"} <= set(data)
        assert data["summary"]["cluster_identity"] is True
        assert data["summary"]["cluster_failover_identical"] is True
