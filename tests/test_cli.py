"""Tests for the repro-atr command line interface."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _SOLVERS, _build_parser, main
from repro.core.engine import available_solvers
from repro.graph.generators import paper_figure3_graph
from repro.graph.io import write_edge_list


class TestDatasets:
    def test_datasets_listing(self, capsys):
        assert main(["datasets"]) == 0
        output = capsys.readouterr().out
        assert "College" in output
        assert "Pokec" in output


class TestSolve:
    def test_solve_on_edge_list(self, tmp_path, capsys):
        path = tmp_path / "fig3.txt"
        write_edge_list(paper_figure3_graph(), path)
        assert main(["solve", "--edge-list", str(path), "--algorithm", "gas", "-b", "1"]) == 0
        output = capsys.readouterr().out
        assert "GAS" in output
        assert "gain=3" in output

    def test_solve_requires_exactly_one_source(self, capsys):
        assert main(["solve", "--algorithm", "gas"]) == 2
        assert main(["solve", "--dataset", "college", "--edge-list", "x.txt"]) == 2

    def test_solve_with_random_baseline(self, tmp_path, capsys):
        path = tmp_path / "fig3.txt"
        write_edge_list(paper_figure3_graph(), path)
        assert main(["solve", "--edge-list", str(path), "--algorithm", "rand", "-b", "2"]) == 0
        assert "Rand" in capsys.readouterr().out

    def test_solve_json_format(self, tmp_path, capsys):
        path = tmp_path / "fig3.txt"
        write_edge_list(paper_figure3_graph(), path)
        assert main(
            [
                "solve",
                "--edge-list",
                str(path),
                "--algorithm",
                "gas",
                "-b",
                "1",
                "--format",
                "json",
            ]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["algorithm"] == "GAS"
        assert payload["gain"] == 3
        assert payload["anchors"] == [[9, 10]]
        assert payload["follower_count"] == 3
        assert sorted(payload["followers"]) == [[5, 8], [7, 8], [8, 9]]
        assert payload["timings"]["elapsed_seconds"] >= 0
        assert len(payload["timings"]["cumulative_seconds_per_round"]) == 1
        assert payload["gain_by_trussness"] == {"3": 3}


class TestSolversCommand:
    def test_solver_table_is_registry_view(self):
        assert sorted(_SOLVERS) == available_solvers()

    def test_solvers_listing(self, capsys):
        assert main(["solvers"]) == 0
        output = capsys.readouterr().out
        for name in ("gas", "base+", "exact"):
            assert name in output


class TestExperiment:
    @pytest.mark.slow
    def test_table4_via_cli(self, capsys):
        assert main(["experiment", "table4", "--profile", "quick"]) == 0
        assert "Table IV" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "does-not-exist"])


class TestReport:
    @pytest.mark.slow
    def test_report_with_subset(self, capsys):
        assert main(["report", "--profile", "quick", "--only", "table4"]) == 0
        output = capsys.readouterr().out
        assert "ATR experiment report" in output
        assert "Table IV" in output


class TestServe:
    def _serve(self, monkeypatch, capsys, lines, argv=()):
        import io
        import sys as _sys

        monkeypatch.setattr(_sys, "stdin", io.StringIO("\n".join(lines) + "\n"))
        rc = main(["serve", *argv])
        return rc, [json.loads(line) for line in capsys.readouterr().out.splitlines()]

    def test_serve_loop_responds_in_input_order(self, monkeypatch, capsys):
        request = {"dataset": "college", "algorithm": "gas", "budget": 1}
        # One worker: the identical requests run strictly in sequence, so
        # the second is guaranteed to find the first's stored answer (with more
        # workers they may legitimately race past it).
        rc, responses = self._serve(
            monkeypatch,
            capsys,
            [
                "# comment",
                json.dumps({"id": "a", **request}),
                json.dumps({"id": "b", **request}),
            ],
            argv=["--workers", "1"],
        )
        assert rc == 0
        assert [r["id"] for r in responses] == ["a", "b"]
        assert all(r["ok"] for r in responses)
        # the repeated request was answered from the result store
        assert responses[1]["cache"]["store"] is True
        assert responses[0]["result"] == responses[1]["result"]

    def test_serve_reports_malformed_lines_in_place(self, monkeypatch, capsys):
        rc, responses = self._serve(
            monkeypatch,
            capsys,
            [
                json.dumps({"id": "ok", "dataset": "college", "budget": 1}),
                "{broken",
            ],
        )
        assert rc == 0
        assert [r["id"] for r in responses] == ["ok", "line-2"]
        assert [r["ok"] for r in responses] == [True, False]
        assert "invalid JSON" in responses[1]["error"]


class TestBatch:
    def test_batch_roundtrip(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                json.dumps(
                    {"id": f"r{i}", "dataset": "college", "algorithm": "gas", "budget": 1}
                )
                for i in range(3)
            )
            + "\n"
        )
        output = tmp_path / "responses.jsonl"
        assert main(["batch", str(requests), "--output", str(output)]) == 0
        responses = [json.loads(line) for line in output.read_text().splitlines()]
        assert [r["id"] for r in responses] == ["r0", "r1", "r2"]
        assert all(r["ok"] for r in responses)
        assert responses[0]["result"] == responses[2]["result"]
        stdout = capsys.readouterr().out
        assert "3/3 ok" in stdout

    def test_batch_exit_code_reflects_errors(self, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"id": "good", "dataset": "college", "budget": 1})
            + "\n"
            + json.dumps({"id": "bad", "dataset": "college", "algorithm": "nope"})
            + "\n"
        )
        output = tmp_path / "responses.jsonl"
        assert main(["batch", str(requests), "--output", str(output)]) == 1
        responses = [json.loads(line) for line in output.read_text().splitlines()]
        assert [r["ok"] for r in responses] == [True, False]

    def test_batch_default_output_path(self, tmp_path, capsys, monkeypatch):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"id": "r", "dataset": "college", "budget": 1}) + "\n"
        )
        assert main(["batch", str(requests)]) == 0
        assert (tmp_path / "requests.jsonl.results.jsonl").exists()


#: Out-of-range values of the flags ``serve``, ``batch`` and ``cluster`` share.
BAD_SERVICE_FLAGS = [
    ("--workers", "0"),
    ("--session-cache", "-1"),
    ("--store-capacity", "-5"),
    ("--max-inflight", "0"),
    ("--max-queue", "-1"),
    ("--deadline-default", "-1"),
    ("--deadline-default", "0"),
    ("--deadline-default", "nan"),
    ("--deadline-default", "inf"),
]

#: Out-of-range values of the flags only ``cluster`` has.
BAD_CLUSTER_FLAGS = [
    ("--backends", "0"),
    ("--workers", "0"),
    ("--replicas", "0"),
    ("--router-workers", "0"),
    ("--probe-interval", "0"),
    ("--probe-interval", "nan"),
    ("--port", "70000"),
    ("--port", "-1"),
]

SRC = Path(__file__).resolve().parent.parent / "src"


def _single_error_line(stderr: str, flag: str) -> None:
    errors = [line for line in stderr.splitlines() if "error:" in line]
    assert len(errors) == 1, stderr
    assert f"argument {flag}:" in errors[0], stderr


class TestServiceFlagBounds:
    @pytest.mark.parametrize("command", ["serve", "batch"])
    @pytest.mark.parametrize("flag, value", BAD_SERVICE_FLAGS)
    def test_out_of_range_is_a_usage_error(
        self, tmp_path, monkeypatch, capsys, command, flag, value
    ):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"id": "r", "dataset": "college", "budget": 1}) + "\n")
        monkeypatch.setattr(sys, "stdin", io.StringIO(""))
        argv = [command, flag, value] + ([str(requests)] if command == "batch" else [])
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        _single_error_line(capsys.readouterr().err, flag)
        assert not (tmp_path / "requests.jsonl.results.jsonl").exists()

    @pytest.mark.parametrize("flag, value", BAD_CLUSTER_FLAGS)
    def test_cluster_rejects_before_starting_anything(self, flag, value):
        # A subprocess with a timeout: a cluster that accepted the value
        # would serve until killed, which must fail the test, not hang it.
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        completed = subprocess.run(
            [sys.executable, "-m", "repro.cli", "cluster", "--port", "0", flag, value],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert completed.returncode == 2, completed.stderr
        _single_error_line(completed.stderr, flag)

    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--transport", "tcp", "--port", "70000"],
            ["serve", "--transport", "tcp", "--port", "-1"],
            ["obs", "--port", "0"],
            ["obs", "--port", "65536"],
        ],
    )
    def test_port_out_of_range_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        _single_error_line(capsys.readouterr().err, "--port")

    def test_obs_timeout_must_be_finite_and_positive(self, capsys):
        for value in ("0", "nan", "inf"):
            with pytest.raises(SystemExit) as exit_info:
                main(["obs", "--port", "1", "--timeout", value])
            assert exit_info.value.code == 2
            _single_error_line(capsys.readouterr().err, "--timeout")

    def test_defaults_and_boundary_values_are_accepted(self):
        parser = _build_parser()
        defaults = parser.parse_args(["cluster"])
        assert (defaults.workers, defaults.session_cache, defaults.store_capacity) == (4, 8, 256)
        assert (defaults.max_inflight, defaults.max_queue, defaults.deadline_default) == (
            None, None, None,
        )
        assert (defaults.backends, defaults.replicas, defaults.router_workers) == (3, 64, 8)
        edge = parser.parse_args([
            "serve", "--workers", "1", "--session-cache", "0", "--store-capacity", "0",
            "--max-inflight", "1", "--max-queue", "0", "--deadline-default", "0.25",
        ])
        assert (edge.workers, edge.session_cache, edge.store_capacity) == (1, 0, 0)
        assert (edge.max_inflight, edge.max_queue, edge.deadline_default) == (1, 0, 0.25)
        ports = [
            parser.parse_args(argv).port
            for argv in (
                ["cluster", "--port", "0"],
                ["serve", "--port", "65535"],
                ["obs", "--port", "1"],
                ["obs", "--port", "65535"],
            )
        ]
        assert ports == [0, 65535, 1, 65535]
