"""Tests for the benchmark harness's append-only output handling.

``BENCH_kernel.json`` is a trajectory — each PR appends comparable sections
(ROADMAP rule).  The harness must refuse to overwrite an existing section
unless ``--force`` is given.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location(
    "bench_kernel_under_test", REPO_ROOT / "benchmarks" / "bench_kernel.py"
)
bench_kernel = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_kernel)

SectionExistsError = bench_kernel.SectionExistsError
merge_report_sections = bench_kernel.merge_report_sections
write_report = bench_kernel.write_report


class TestMergeReportSections:
    def test_appends_new_sections(self):
        existing = {"decomposition": {"a": 1}, "summary": {"x": 1}}
        fresh = {"engine_v2": {"gas": {}}, "summary": {"y": 2}}
        merged = merge_report_sections(existing, fresh)
        assert merged["decomposition"] == {"a": 1}
        assert merged["engine_v2"] == {"gas": {}}
        assert merged["summary"] == {"x": 1, "y": 2}

    def test_refuses_to_overwrite_existing_section(self):
        existing = {"engine": {"old": True}}
        with pytest.raises(SectionExistsError):
            merge_report_sections(existing, {"engine": {"new": True}})
        # the refusal must not have mutated the input
        assert existing == {"engine": {"old": True}}

    def test_force_overwrites(self):
        merged = merge_report_sections(
            {"engine": {"old": True}}, {"engine": {"new": True}}, force=True
        )
        assert merged["engine"] == {"new": True}

    def test_metadata_keys_merge_freely(self):
        existing = {"description": "gen 1", "targets": {"gas": 3.0}}
        merged = merge_report_sections(
            existing, {"description": "gen 2", "engine_v2": {}}
        )
        assert merged["description"] == "gen 1"  # first writer wins
        assert merged["engine_v2"] == {}

    def test_summary_keys_update_in_place(self):
        merged = merge_report_sections(
            {"summary": {"gas_speedup_min": 3.0}},
            {"summary": {"gas_speedup_min": 4.0, "extra": 1}},
        )
        assert merged["summary"] == {"gas_speedup_min": 4.0, "extra": 1}


class TestWriteReport:
    def test_roundtrip_append(self, tmp_path):
        output = tmp_path / "bench.json"
        write_report(output, {"engine": {"v": 1}, "summary": {"a": 1}}, force=False)
        write_report(output, {"engine_v2": {"v": 2}, "summary": {"b": 2}}, force=False)
        data = json.loads(output.read_text(encoding="utf-8"))
        assert data["engine"] == {"v": 1}
        assert data["engine_v2"] == {"v": 2}
        assert data["summary"] == {"a": 1, "b": 2}

    def test_second_write_of_same_section_refused(self, tmp_path):
        output = tmp_path / "bench.json"
        write_report(output, {"engine_v2": {"v": 1}}, force=False)
        with pytest.raises(SectionExistsError):
            write_report(output, {"engine_v2": {"v": 2}}, force=False)
        data = json.loads(output.read_text(encoding="utf-8"))
        assert data["engine_v2"] == {"v": 1}  # file untouched

    def test_repo_trajectory_still_has_all_generations(self):
        """The curated BENCH_kernel.json keeps every PR's section."""
        data = json.loads(
            (REPO_ROOT / "BENCH_kernel.json").read_text(encoding="utf-8")
        )
        assert {"decomposition", "followers", "gas", "engine", "engine_v2"} <= set(data)
        assert data["engine_v2"]["summary"]["meets_gas_target"] is True
        assert data["engine_v2"]["summary"]["base_at_parity"] is True
        assert data["engine_v2"]["summary"]["exact_at_parity"] is True


class TestServiceSection:
    """PR 4's 'service' section plays by the same append-only rules."""

    def test_service_section_appends(self, tmp_path):
        output = tmp_path / "bench.json"
        write_report(output, {"engine_v2": {"v": 1}, "summary": {"a": 1}}, force=False)
        write_report(
            output,
            {"service": {"workloads": {}}, "summary": {"meets_service_warm_target": True}},
            force=False,
        )
        data = json.loads(output.read_text(encoding="utf-8"))
        assert data["engine_v2"] == {"v": 1}
        assert data["service"] == {"workloads": {}}
        assert data["summary"] == {"a": 1, "meets_service_warm_target": True}

    def test_service_section_refuses_overwrite(self, tmp_path):
        output = tmp_path / "bench.json"
        write_report(output, {"service": {"v": 1}}, force=False)
        with pytest.raises(SectionExistsError):
            write_report(output, {"service": {"v": 2}}, force=False)
        assert json.loads(output.read_text(encoding="utf-8"))["service"] == {"v": 1}

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

    def test_every_registered_solver_has_a_determinism_row(self):
        from repro.core.engine import available_solvers

        assert set(available_solvers()) <= set(bench_kernel.SERVICE_DETERMINISM)


class TestApiSection:
    """PR 5's 'api' section plays by the same append-only rules — and the
    curated trajectory now records it."""

    def test_api_section_appends_and_is_guarded(self, tmp_path):
        output = tmp_path / "bench.json"
        write_report(output, {"service": {"v": 4}, "summary": {"a": 1}}, force=False)
        write_report(
            output,
            {"api": {"identity_grid": {}}, "summary": {"api_identity_grid_identical": True}},
            force=False,
        )
        with pytest.raises(SectionExistsError):
            write_report(output, {"api": {"identity_grid": {"new": 1}}}, force=False)
        data = json.loads(output.read_text(encoding="utf-8"))
        assert data["api"] == {"identity_grid": {}}
        assert data["summary"] == {"a": 1, "api_identity_grid_identical": True}

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
    """PR 7's 'kernel_v2' section: append-only rules, recorded trajectory and
    a live (conservatively-margined) cold-decomposition guard."""

    def test_kernel_v2_section_appends_and_is_guarded(self, tmp_path):
        output = tmp_path / "bench.json"
        write_report(output, {"api": {"v": 5}, "summary": {"a": 1}}, force=False)
        write_report(
            output,
            {
                "kernel_v2": {"decomposition": {}},
                "summary": {"kernel_v2_meets_cold_target": True},
            },
            force=False,
        )
        with pytest.raises(SectionExistsError):
            write_report(output, {"kernel_v2": {"decomposition": {"new": 1}}}, force=False)
        data = json.loads(output.read_text(encoding="utf-8"))
        assert data["kernel_v2"] == {"decomposition": {}}
        assert data["summary"] == {"a": 1, "kernel_v2_meets_cold_target": True}

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
    """PR 8's 'world' section: append-only rules and the recorded trajectory
    (sweep wall time, per-family engine-speedup spread, zero violations)."""

    def test_world_section_appends_and_is_guarded(self, tmp_path):
        output = tmp_path / "bench.json"
        write_report(output, {"kernel_v2": {"v": 7}, "summary": {"a": 1}}, force=False)
        write_report(
            output,
            {
                "world": {"sweep": {"points": 6}},
                "summary": {"world_violations": 0},
            },
            force=False,
        )
        with pytest.raises(SectionExistsError):
            write_report(output, {"world": {"sweep": {"points": 9}}}, force=False)
        data = json.loads(output.read_text(encoding="utf-8"))
        assert data["world"] == {"sweep": {"points": 6}}
        assert data["summary"] == {"a": 1, "world_violations": 0}

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

    def test_merge_world_summary(self):
        report = {
            "world": {
                "summary": {
                    "sweep_wall_s": 12.5,
                    "families": 6,
                    "violations": 0,
                    "engine_speedup_median_min": 1.1,
                    "engine_speedup_median_max": 2.0,
                }
            },
            "summary": {},
        }
        bench_kernel.merge_world_summary(report)
        summary = report["summary"]
        assert summary["world_sweep_wall_s"] == 12.5
        assert summary["world_families"] == 6
        assert summary["world_violations"] == 0
        assert summary["world_engine_speedup_median_min"] == 1.1
        assert summary["world_engine_speedup_median_max"] == 2.0


class TestObsSection:
    """PR 9's 'obs' section: append-only rules and the recorded trajectory
    (warm-path overhead within target, byte identity, a real trace)."""

    def test_obs_section_appends_and_is_guarded(self, tmp_path):
        output = tmp_path / "bench.json"
        write_report(output, {"world": {"v": 8}, "summary": {"a": 1}}, force=False)
        write_report(
            output,
            {
                "obs": {"overhead": {"overhead_pct": 1.0}},
                "summary": {"obs_identity": True},
            },
            force=False,
        )
        with pytest.raises(SectionExistsError):
            write_report(
                output, {"obs": {"overhead": {"overhead_pct": 9.0}}}, force=False
            )
        data = json.loads(output.read_text(encoding="utf-8"))
        assert data["obs"] == {"overhead": {"overhead_pct": 1.0}}
        assert data["summary"] == {"a": 1, "obs_identity": True}

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

    def test_merge_obs_summary(self):
        report = {
            "obs": {
                "summary": {
                    "warm_path_overhead_pct": 1.2,
                    "target_overhead_pct": 3.0,
                    "identity": True,
                    "trace_spans": 7,
                }
            },
            "summary": {},
        }
        bench_kernel.merge_obs_summary(report)
        summary = report["summary"]
        assert summary["obs_warm_path_overhead_pct"] == 1.2
        assert summary["obs_identity"] is True
        assert summary["obs_trace_spans"] == 7


class TestClusterSection:
    """PR 10's 'cluster' section: append-only rules and the recorded
    trajectory (routed byte identity, failover, warm-shard hit rate, and
    the honestly-gated process-vs-thread retry)."""

    def test_cluster_section_appends_and_is_guarded(self, tmp_path):
        output = tmp_path / "bench.json"
        write_report(output, {"obs": {"v": 9}, "summary": {"a": 1}}, force=False)
        write_report(
            output,
            {
                "cluster": {"identity": {"identical": True}},
                "summary": {"cluster_identity": True},
            },
            force=False,
        )
        with pytest.raises(SectionExistsError):
            write_report(
                output, {"cluster": {"identity": {"identical": False}}}, force=False
            )
        data = json.loads(output.read_text(encoding="utf-8"))
        assert data["cluster"] == {"identity": {"identical": True}}
        assert data["summary"] == {"a": 1, "cluster_identity": True}

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

    def test_merge_cluster_summary(self):
        report = {
            "cluster": {
                "summary": {
                    "identity": True,
                    "failover_identical": True,
                    "store_repeat_hit": True,
                    "warm_session_hit_rate": 0.75,
                    "three_vs_one_throughput": 1.1,
                    "cpu_count": 1,
                    "process_retry_attempted": False,
                    "process_retry_speedup": None,
                }
            },
            "summary": {},
        }
        bench_kernel.merge_cluster_summary(report)
        summary = report["summary"]
        assert summary["cluster_identity"] is True
        assert summary["cluster_failover_identical"] is True
        assert summary["cluster_store_repeat_hit"] is True
        assert summary["cluster_warm_session_hit_rate"] == 0.75
        assert summary["cluster_three_vs_one_throughput"] == 1.1
        assert summary["cluster_cpu_count"] == 1
        assert summary["cluster_process_retry_attempted"] is False


class TestSectionRegistry:
    """``--section NAME`` runs one entry of the live-section table; the
    retired sections are recorded history only."""

    def test_live_sections_are_recorded_and_history_is_not_live(self):
        data = json.loads(
            (REPO_ROOT / "BENCH_kernel.json").read_text(encoding="utf-8")
        )
        assert list(bench_kernel.SECTIONS) == [
            "service", "api", "resilience", "world", "obs", "cluster",
        ]
        assert set(bench_kernel.SECTIONS) <= set(data)
        history = {"decomposition", "followers", "gas", "engine", "engine_v2", "kernel_v2"}
        assert history <= set(data)
        assert not history & set(bench_kernel.SECTIONS)

    def test_retired_section_is_rejected(self, capsys):
        with pytest.raises(SystemExit):
            bench_kernel.main(["--section", "kernel_v2"])
        assert "invalid choice" in capsys.readouterr().err
