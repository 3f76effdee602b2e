#!/usr/bin/env python
"""Generate ``docs/API.md`` from the public API's docstrings.

The documented surface is the list in :data:`API_SURFACE` below — the
objects a library user (or a new solver author) touches: the solver engine
and registry, the request/result types, the graph kernel and the truss
structures.  Docstrings are emitted verbatim (they are the single source of
truth; this script only adds signatures and anchors), so the page can never
drift from the code — regenerate with::

    PYTHONPATH=src python scripts/gen_api.py

and commit the refreshed ``docs/API.md``.  The CI ``docs`` job link-checks
the result; ``tests/test_docs.py`` asserts the page is in sync.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path
from typing import List

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro import oracles  # noqa: E402
from repro.api import resolve as api_resolve  # noqa: E402
from repro.api import session as api_session  # noqa: E402
from repro.api import spec as api_spec  # noqa: E402
from repro.cluster import backends as cluster_backends  # noqa: E402
from repro.cluster import ring as cluster_ring  # noqa: E402
from repro.cluster import router as cluster_router  # noqa: E402
from repro.cluster import telemetry as cluster_telemetry  # noqa: E402
from repro.core import component_tree, engine, result, reuse, upward_route  # noqa: E402
from repro.datasets import registry as datasets_registry  # noqa: E402
from repro.datasets import snap as datasets_snap  # noqa: E402
from repro.graph import csr as csr_module  # noqa: E402
from repro.graph import graph as graph_module  # noqa: E402
from repro.graph import index as index_module  # noqa: E402
from repro.obs import logs as obs_logs  # noqa: E402
from repro.obs import metrics as obs_metrics  # noqa: E402
from repro.obs import tracing as obs_tracing  # noqa: E402
from repro.service import batching as service_batching  # noqa: E402
from repro.service import faults as service_faults  # noqa: E402
from repro.service import protocol as service_protocol  # noqa: E402
from repro.service import resilience as service_resilience  # noqa: E402
from repro.service import result_store as service_result_store  # noqa: E402
from repro.service import scheduler as service_scheduler  # noqa: E402
from repro.service import session_cache as service_session_cache  # noqa: E402
from repro.service import transports as service_transports  # noqa: E402
from repro.truss import decomposition as decomposition_module  # noqa: E402
from repro.truss import peel as peel_module  # noqa: E402
from repro.truss import state as state_module  # noqa: E402
from repro.world import axes as world_axes  # noqa: E402
from repro.world import invariants as world_invariants  # noqa: E402
from repro.world import sweep as world_sweep  # noqa: E402

#: (section title, module, [object names]) — the public surface, in reading
#: order.  Add a name here when a new object becomes part of the public API.
API_SURFACE = [
    (
        "Public API (`repro.api`)",
        None,
        [],
    ),
    (
        "Solver engine and registry (`repro.core.engine`)",
        engine,
        [
            "SolverEngine",
            "CommitDelta",
            "SolverSpec",
            "register_solver",
            "get_solver",
            "available_solvers",
            "solver_table",
            "solve",
        ],
    ),
    (
        "Results (`repro.core.result`)",
        result,
        ["AnchorResult", "evaluate_anchor_set"],
    ),
    (
        "Truss component tree (`repro.core.component_tree`)",
        component_tree,
        ["TrussComponentTree", "TreeNode", "TreePatchInfo"],
    ),
    (
        "Follower reuse (`repro.core.reuse`)",
        reuse,
        ["ReuseDecision", "ReuseInvalidation"],
    ),
    (
        "Upward routes (`repro.core.upward_route`)",
        upward_route,
        ["upward_route_sizes", "upward_route_size", "upward_route_statistics"],
    ),
    (
        "Serving layer (`repro.service`)",
        None,
        [],
    ),
    (
        "Cluster layer (`repro.cluster`)",
        None,
        [],
    ),
    (
        "Observability (`repro.obs`)",
        None,
        [],
    ),
    (
        "Datasets and the SNAP pipeline (`repro.datasets`)",
        None,
        [],
    ),
    (
        "Graph kernel (`repro.graph`)",
        None,
        [],
    ),
    (
        "Scenario world (`repro.world`)",
        None,
        [],
    ),
    (
        "Oracles (`repro.oracles`)",
        oracles,
        [
            "truss_decomposition_reference",
            "dense_peel_reference",
            "triangle_connected_components_reference",
            "component_tree_reference",
            "compute_reuse_decision_reference",
            "base_greedy_reference",
            "exact_atr_reference",
        ],
    ),
]

#: The scenario world: parameter space, sweep runner and invariant rig.
WORLD_SURFACE = [
    (world_axes, ["WorldAxes", "WorldPoint", "sample_points"]),
    (world_sweep, ["run_sweep", "summarize_sweep", "sweep_rows_to_csv"]),
    (
        world_invariants,
        [
            "check_world_point",
            "InvariantReport",
            "InvariantViolation",
            "replay_command",
            "tree_signature",
        ],
    ),
]

#: Extra entries drawn from several modules for the multi-module sections.
GRAPH_SURFACE = [
    (graph_module, ["Graph"]),
    (index_module, ["GraphIndex"]),
    (
        csr_module,
        ["CSRArrays", "build_csr_arrays", "csr_payload", "csr_from_payload"],
    ),
    (peel_module, ["peel_trussness_fast", "peel_trussness_arrays"]),
    (
        decomposition_module,
        ["truss_decomposition", "TrussDecomposition", "EdgeValues"],
    ),
    (state_module, ["TrussState"]),
]

API_MODULE_SURFACE = [
    (api_spec, ["SolveSpec", "SolveOutcome", "canonical_result", "result_to_json"]),
    (api_session, ["Session", "solve", "memoizable"]),
    (api_resolve, ["GraphResolver", "resolve_graph"]),
]

SERVICE_SURFACE = [
    (service_scheduler, ["SolveService"]),
    (service_session_cache, ["EngineSessionCache", "EngineSession", "Served"]),
    (service_result_store, ["ResultStore"]),
    (
        service_resilience,
        [
            "AdmissionControl",
            "RetryPolicy",
            "ResilienceError",
            "DeadlineExceeded",
            "Overloaded",
            "WorkerCrashed",
            "classify_exception",
            "failure_message",
            "remaining_deadline",
        ],
    ),
    (
        service_transports,
        ["Transport", "StdioTransport", "TcpTransport", "serve_stream"],
    ),
    (
        service_protocol,
        ["parse_request_line", "parse_control_line"],
    ),
    (service_batching, ["run_batch", "run_batch_file", "group_requests"]),
    (
        service_faults,
        ["install_fault_solver", "uninstall_fault_solver", "send_and_drop"],
    ),
]

#: The cluster layer: consistent-hash ring, backend supervision, router,
#: cross-backend telemetry merging.
CLUSTER_SURFACE = [
    (cluster_ring, ["HashRing"]),
    (
        cluster_backends,
        ["Backend", "BackendPool", "InProcessBackend", "SubprocessBackend",
         "probe_health"],
    ),
    (cluster_router, ["RouterService"]),
    (
        cluster_telemetry,
        ["merge_metrics_snapshots", "merge_histogram_snapshots"],
    ),
]

#: The observability layer: metrics registry, tracing, structured logs.
OBS_SURFACE = [
    (
        obs_metrics,
        [
            "MetricsRegistry",
            "Counter",
            "Gauge",
            "Histogram",
            "set_default_registry",
            "default_registry",
            "prometheus_from_snapshot",
            "quantile_from_snapshot",
        ],
    ),
    (
        obs_tracing,
        [
            "recording",
            "span",
            "Trace",
            "TraceBuffer",
            "current_trace",
            "current_trace_id",
            "new_trace_id",
            "trace_buffer",
            "get_trace",
            "record_foreign_trace",
            "export_chrome_trace",
            "format_span_tree",
        ],
    ),
    (
        obs_logs,
        ["log_event", "get_logger", "configure_json_logging", "JsonLineFormatter"],
    ),
]

DATASETS_SURFACE = [
    (
        datasets_registry,
        ["DatasetSpec", "register_dataset", "load_dataset", "dataset_statistics"],
    ),
    (
        datasets_snap,
        [
            "graph_fingerprint",
            "load_snap",
            "load_snap_report",
            "register_snap_dataset",
            "materialize_dataset",
        ],
    ),
]

#: Multi-module section title -> its surface list.
COMPOSITE_SECTIONS = {
    "Public API (`repro.api`)": API_MODULE_SURFACE,
    "Serving layer (`repro.service`)": SERVICE_SURFACE,
    "Cluster layer (`repro.cluster`)": CLUSTER_SURFACE,
    "Observability (`repro.obs`)": OBS_SURFACE,
    "Datasets and the SNAP pipeline (`repro.datasets`)": DATASETS_SURFACE,
    "Graph kernel (`repro.graph`)": GRAPH_SURFACE,
    "Scenario world (`repro.world`)": WORLD_SURFACE,
}

METHOD_ALLOWLIST = {
    "SolveSpec": [
        "param",
        "require_source",
        "source_label",
        "signature",
        "to_json_dict",
        "canonical_json",
        "from_json_dict",
        "from_json_line",
        "reject_initial_anchors",
    ],
    "SolveOutcome": [
        "to_json_dict",
        "to_json_line",
        "from_json_dict",
        "canonical",
        "raise_for_error",
    ],
    "Session": ["solve", "solve_result", "info"],
    "GraphResolver": ["resolve"],
    "SolverEngine": [
        "solve",
        "solve_spec",
        "reset",
        "commit_anchor",
        "tree",
        "route_sizes",
        "take_reuse_decision",
        "evaluate_gain",
        "evaluate_anchor_chain_gain",
        "apply_anchor_to_arrays",
        "snapshot_baseline_followers",
        "restore_baseline_followers",
        "session_info",
    ],
    "TrussComponentTree": [
        "build",
        "apply_commit",
        "start_journal",
        "rollback",
        "node_of",
        "sla",
        "subtree_edges",
        "subtree_node_ids",
    ],
    "GraphIndex": ["of", "from_csr", "edge_support", "neighbors_csr"],
    "CSRArrays": ["hit_bases"],
    "TrussDecomposition": ["hull", "hulls", "layers_of_hull"],
    "TrussState": [
        "compute",
        "with_anchor",
        "with_anchors",
        "trussness",
        "layer",
        "precedes",
        "kernel_views",
        "array_views",
        "tight_flags",
        "starter_flags",
        "trussness_gain_from",
        "followers_relative_to",
    ],
    "SolveService": [
        "solve",
        "solve_many",
        "submit",
        "submit_sequence",
        "stats",
        "health",
        "metrics_snapshot",
        "metrics_text",
        "drain",
        "session_info",
        "close",
    ],
    "MetricsRegistry": [
        "counter",
        "gauge",
        "histogram",
        "snapshot",
        "to_prometheus_text",
    ],
    "Counter": ["inc"],
    "Gauge": ["set", "add"],
    "Histogram": ["observe", "time", "quantile", "snapshot"],
    "Trace": ["begin", "end", "add_span", "graft", "to_dict"],
    "TraceBuffer": ["add", "traces", "get", "clear"],
    "AdmissionControl": ["try_admit", "start", "finish", "wait_idle", "snapshot"],
    "RetryPolicy": ["delay", "schedule"],
    "EngineSessionCache": ["acquire", "serve", "stats"],
    "ResultStore": ["get", "put", "stats"],
    "StdioTransport": ["serve"],
    "TcpTransport": ["serve", "start", "close"],
    "HashRing": [
        "add",
        "remove",
        "owner",
        "successors",
        "ownership",
        "spread",
    ],
    "Backend": ["describe"],
    "BackendPool": [
        "add_managed",
        "attach",
        "ids",
        "address_of",
        "is_up",
        "report_failure",
        "kill",
        "probe_once",
        "start",
        "snapshot",
        "close",
    ],
    "InProcessBackend": ["start", "kill", "alive"],
    "SubprocessBackend": ["start", "kill", "alive"],
    "RouterService": [
        "solve",
        "solve_many",
        "submit",
        "submit_sequence",
        "fingerprint_of",
        "metrics_snapshot",
        "health",
        "stats",
        "drain",
        "close",
    ],
    "WorldPoint": [
        "param",
        "build_graph",
        "anchor_schedule",
        "spec",
        "from_spec",
        "label",
    ],
}


def _signature(obj) -> str:
    try:
        return str(inspect.signature(obj))
    except (TypeError, ValueError):
        return "(...)"


def _docstring(obj) -> str:
    doc = inspect.getdoc(obj)
    return doc.rstrip() if doc else "(undocumented)"


def _emit_object(module, name: str, lines: List[str]) -> None:
    obj = getattr(module, name)
    if inspect.isclass(obj):
        lines.append(f"### class `{name}`\n")
        lines.append("```text")
        lines.append(_docstring(obj))
        lines.append("```\n")
        for method_name in METHOD_ALLOWLIST.get(name, []):
            method = inspect.getattr_static(obj, method_name, None)
            if method is None:
                raise SystemExit(
                    f"gen_api: {name}.{method_name} listed but missing — "
                    "update METHOD_ALLOWLIST"
                )
            if isinstance(method, (classmethod, staticmethod)):
                method = method.__func__
            if isinstance(method, property):  # pragma: no cover - none today
                method = method.fget
            lines.append(f"#### `{name}.{method_name}{_signature(method)}`\n")
            lines.append("```text")
            lines.append(_docstring(method))
            lines.append("```\n")
    else:
        lines.append(f"### `{name}{_signature(obj)}`\n")
        lines.append("```text")
        lines.append(_docstring(obj))
        lines.append("```\n")


def render() -> str:
    lines: List[str] = [
        "# API reference",
        "",
        "**Generated by `scripts/gen_api.py` — do not edit by hand.**",
        "Regenerate after changing a public docstring:",
        "",
        "```bash",
        "PYTHONPATH=src python scripts/gen_api.py",
        "```",
        "",
        "See [ARCHITECTURE.md](ARCHITECTURE.md) for how the layers fit"
        " together and [REPRODUCING.md](REPRODUCING.md) for the experiment"
        " harness.",
        "",
    ]
    for title, module, names in API_SURFACE:
        lines.append(f"## {title}\n")
        if module is None:
            for sub_module, sub_names in COMPOSITE_SECTIONS[title]:
                for name in sub_names:
                    _emit_object(sub_module, name, lines)
        else:
            for name in names:
                _emit_object(module, name, lines)
    return "\n".join(lines).rstrip() + "\n"


def main() -> int:
    output = REPO_ROOT / "docs" / "API.md"
    output.write_text(render(), encoding="utf-8")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
