"""Tests for the observability layer: metrics, tracing, logs, exposition.

The load-bearing properties:

* **correctness of the registry** — counters survive an 8-thread hammer
  exactly, bucket-quantile estimates stay within one bucket width of a
  sorted-array reference, and the null registry is a true no-op;
* **invisibility** — a ``SolveSpec`` without ``trace_id`` serialises to
  byte-identical JSON (old specs round-trip unchanged; ``signature()``
  never sees it), and canonical results are byte-identical whether
  observability is off, on, or armed process-globally;
* **propagation** — a ``trace_id`` submitted over either transport reaches
  the engine's spans under both executors, including the process pool's
  record-in-worker / graft-in-coordinator path;
* **exposition** — ``{"op": "metrics"}`` answers with the full snapshot on
  any transport, ``health`` carries the top-line summary, and the CLI's
  ``solve --trace`` / ``obs`` surfaces render them.
"""

from __future__ import annotations

import io
import json
import logging
import threading

import pytest

from repro.api import SolveSpec, SpecError
from repro.graph.io import write_edge_list
from repro.graph.generators import paper_figure3_graph
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Histogram,
    MetricsRegistry,
    default_registry,
    prometheus_from_snapshot,
    set_default_registry,
)
from repro.obs.logs import JsonLineFormatter, get_logger, log_event
from repro.obs.tracing import (
    Trace,
    TraceBuffer,
    current_trace,
    current_trace_id,
    export_chrome_trace,
    format_span_tree,
    get_trace,
    new_trace_id,
    record_foreign_trace,
    recording,
    span,
)
from repro.core.engine import available_solvers, get_solver
from repro.service import SolveService, canonical_result, parse_request_line
from repro.service.protocol import ProtocolError, parse_control_line
from repro.service.transports import (
    TcpTransport,
    request_lines_over_tcp,
    serve_stream,
)

#: K6 — every edge sits in many triangles, so every solver has real work.
CLIQUE_EDGES = tuple(
    (i, j) for i in range(6) for j in range(i + 1, 6)
)


def canonical_json(payload: dict) -> str:
    return json.dumps(canonical_result(payload), sort_keys=True)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------
class TestRegistry:
    def test_counter_survives_thread_hammer(self):
        registry = MetricsRegistry()
        counter = registry.counter("hammer")
        gauge = registry.gauge("level")
        hist = registry.histogram("obs", buckets=(1.0, 2.0, 4.0))

        def work():
            for i in range(5000):
                counter.inc()
                gauge.add(1.0)
                hist.observe(float(i % 5))

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8 * 5000
        assert gauge.value == 8 * 5000.0
        snap = hist.snapshot()
        assert snap["count"] == 8 * 5000
        assert sum(b["count"] for b in snap["buckets"]) == 8 * 5000

    def test_get_or_create_returns_same_object(self):
        registry = MetricsRegistry()
        assert registry.counter("x") is registry.counter("x")
        assert registry.histogram("h") is registry.histogram("h", buckets=(1.0,))

    def test_type_mismatch_raises(self):
        registry = MetricsRegistry()
        registry.counter("metric")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.histogram("metric")
        with pytest.raises(ValueError, match="already registered as a counter"):
            registry.gauge("metric")

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1.0, 1.0))

    def test_quantiles_track_sorted_reference(self):
        # Deterministic values spread over the default latency buckets; the
        # estimate must stay within the covering bucket of the true value.
        import random

        rng = random.Random(1307)
        values = [rng.uniform(0.0002, 2.0) for _ in range(500)]
        hist = Histogram("lat")
        for value in values:
            hist.observe(value)
        ordered = sorted(values)
        import bisect

        for q in (0.5, 0.9, 0.95, 0.99):
            true = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
            est = hist.quantile(q)
            index = bisect.bisect_left(DEFAULT_LATENCY_BUCKETS, true)
            lower = DEFAULT_LATENCY_BUCKETS[index - 1] if index > 0 else 0.0
            upper = (
                DEFAULT_LATENCY_BUCKETS[index]
                if index < len(DEFAULT_LATENCY_BUCKETS)
                else max(values)
            )
            width = upper - lower
            assert abs(est - true) <= width + 1e-12

    def test_single_observation_reports_itself(self):
        hist = Histogram("one")
        hist.observe(0.042)
        assert hist.quantile(0.5) == pytest.approx(0.042)
        assert hist.quantile(0.99) == pytest.approx(0.042)
        snap = hist.snapshot()
        assert snap["min"] == snap["max"] == pytest.approx(0.042)

    def test_empty_histogram(self):
        hist = Histogram("empty")
        assert hist.quantile(0.5) == 0.0
        snap = hist.snapshot()
        assert snap["count"] == 0 and snap["min"] is None

    def test_default_registry_arm_and_restore(self):
        registry = MetricsRegistry()
        previous = set_default_registry(registry)
        try:
            assert default_registry() is registry
        finally:
            assert set_default_registry(previous) is registry
        assert default_registry() is previous

    def test_prometheus_text_format(self):
        registry = MetricsRegistry()
        registry.counter("service.requests").inc(3)
        hist = registry.histogram("service.solve_s", buckets=(0.1, 1.0))
        hist.observe(0.05)
        hist.observe(0.5)
        hist.observe(5.0)
        text = registry.to_prometheus_text()
        assert "# TYPE service_requests counter" in text
        assert "service_requests 3" in text
        assert "# TYPE service_solve_s histogram" in text
        # Buckets are cumulative in the exposition format.
        assert 'service_solve_s_bucket{le="0.1"} 1' in text
        assert 'service_solve_s_bucket{le="1.0"} 2' in text
        assert 'service_solve_s_bucket{le="+Inf"} 3' in text
        assert "service_solve_s_count 3" in text
        assert prometheus_from_snapshot(registry.snapshot()) == text


# ---------------------------------------------------------------------------
# SolveSpec.trace_id: strictly additive, invisible when absent
# ---------------------------------------------------------------------------
class TestSpecTraceId:
    def test_absent_means_absent_bytes(self):
        spec = SolveSpec(request_id="r", edges=((1, 2),), algorithm="gas")
        payload = spec.to_json_dict()
        assert "trace_id" not in payload
        # The exact bytes an old client would have produced.
        assert json.dumps(payload, sort_keys=True) == json.dumps(
            SolveSpec(request_id="r", edges=((1, 2),), algorithm="gas").to_json_dict(),
            sort_keys=True,
        )

    def test_round_trip(self):
        spec = SolveSpec(
            request_id="r", edges=((1, 2),), algorithm="gas", trace_id="t-abc"
        )
        payload = spec.to_json_dict()
        assert payload["trace_id"] == "t-abc"
        again = SolveSpec.from_json_dict(payload)
        assert again.trace_id == "t-abc"
        assert again.to_json_dict() == payload

    def test_old_payload_round_trips_byte_identically(self):
        line = '{"id": "r", "edges": [[1, 2], [2, 3], [1, 3]], "algorithm": "gas", "budget": 1}'
        spec = parse_request_line(line)
        assert spec.trace_id is None
        assert "trace_id" not in spec.to_json_dict()

    def test_signature_ignores_trace_id(self):
        plain = SolveSpec(request_id="r", edges=((1, 2),), algorithm="gas")
        traced = SolveSpec(
            request_id="r", edges=((1, 2),), algorithm="gas", trace_id="t-xyz"
        )
        assert plain.signature() == traced.signature()

    def test_invalid_trace_id_rejected(self):
        with pytest.raises(SpecError, match="trace_id"):
            SolveSpec(request_id="r", edges=((1, 2),), trace_id="")
        with pytest.raises(SpecError, match="trace_id"):
            SolveSpec(request_id="r", edges=((1, 2),), trace_id=7)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Tracing primitives
# ---------------------------------------------------------------------------
class TestTracing:
    def test_span_without_recording_is_a_noop(self):
        assert current_trace() is None
        with span("ghost", anything=1):
            assert current_trace() is None
        assert current_trace_id() is None

    def test_nested_spans_build_a_tree(self):
        buffer = TraceBuffer(capacity=8)
        with recording("t-tree", buffer=buffer) as trace:
            assert current_trace() is trace
            assert current_trace_id() == "t-tree"
            with span("outer", kind="a"):
                with span("inner"):
                    pass
                with span("sibling"):
                    pass
        assert current_trace() is None
        trace_dict = buffer.get("t-tree")
        assert trace_dict is not None
        spans = {s["name"]: s for s in trace_dict["spans"]}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["sibling"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        assert spans["outer"]["fields"] == {"kind": "a"}
        for entry in trace_dict["spans"]:
            assert entry["end_s"] >= entry["start_s"] >= 0.0

        tree = format_span_tree(trace_dict)
        assert tree.splitlines()[0] == "trace t-tree"
        assert "outer" in tree and "├─ inner" in tree and "└─ sibling" in tree

    def test_recording_is_nesting_safe(self):
        buffer = TraceBuffer(capacity=8)
        with recording("t-outer", buffer=buffer) as outer:
            with recording("t-inner", buffer=buffer):
                assert current_trace_id() == "t-inner"
            assert current_trace() is outer

    def test_externally_timed_span_rebases(self):
        trace = Trace("t-ext")
        trace.add_span("queued", start=10.0, end=10.5)
        trace.add_span("work", start=10.5, end=11.0)
        spans = trace.to_dict()["spans"]
        assert spans[0]["start_s"] == 0.0
        assert spans[1]["start_s"] == pytest.approx(0.5)
        assert spans[1]["duration_s"] == pytest.approx(0.5)

    def test_graft_remaps_ids_and_parents(self):
        trace = Trace("t-graft")
        root = trace.begin("coordinator")
        worker_spans = [
            {"id": 0, "parent": None, "name": "worker.solve", "start_s": 0.0, "end_s": 0.2, "fields": {}},
            {"id": 1, "parent": 0, "name": "engine.solve_spec", "start_s": 0.01, "end_s": 0.19, "fields": {}},
        ]
        trace.graft(worker_spans, at=trace._spans[0]["start"])
        trace.end(root)
        spans = {s["name"]: s for s in trace.to_dict()["spans"]}
        assert spans["worker.solve"]["parent"] == spans["coordinator"]["id"]
        assert spans["engine.solve_spec"]["parent"] == spans["worker.solve"]["id"]

    def test_trace_buffer_is_bounded(self):
        buffer = TraceBuffer(capacity=4)
        for i in range(10):
            buffer.add({"trace_id": f"t-{i}", "spans": []})
        stored = buffer.traces()
        assert len(stored) == 4
        assert [t["trace_id"] for t in stored] == ["t-6", "t-7", "t-8", "t-9"]
        assert buffer.get("t-0") is None
        assert buffer.get("t-9")["trace_id"] == "t-9"
        with pytest.raises(ValueError):
            TraceBuffer(capacity=0)

    def test_record_foreign_trace(self):
        buffer = TraceBuffer(capacity=4)
        record_foreign_trace(
            "t-foreign",
            [{"id": 0, "parent": None, "name": "worker.solve", "start_s": 0.0, "end_s": 0.1, "fields": {}}],
            buffer=buffer,
        )
        stored = buffer.get("t-foreign")
        assert stored is not None
        assert stored["spans"][0]["name"] == "worker.solve"

    def test_chrome_export_shape(self):
        buffer = TraceBuffer(capacity=4)
        with recording("t-chrome", buffer=buffer):
            with span("work"):
                pass
        exported = export_chrome_trace(buffer.traces())
        assert exported["displayTimeUnit"] == "ms"
        events = exported["traceEvents"]
        assert len(events) == 1
        event = events[0]
        assert event["name"] == "work"
        assert event["ph"] == "X"
        assert event["tid"] == "t-chrome"
        assert event["dur"] >= 0.0

    def test_new_trace_id_shape(self):
        tid = new_trace_id("req")
        assert tid.startswith("req-") and len(tid) == len("req-") + 12
        assert new_trace_id() != new_trace_id()


# ---------------------------------------------------------------------------
# End-to-end trace propagation: executors x transports
# ---------------------------------------------------------------------------
def _request_line(trace_id: str, request_id: str = "traced") -> str:
    return json.dumps(
        {
            "id": request_id,
            "edges": [list(edge) for edge in CLIQUE_EDGES],
            "algorithm": "gas",
            "budget": 1,
            "trace_id": trace_id,
        }
    )


@pytest.mark.parametrize("executor", ["thread", "process"])
@pytest.mark.parametrize("transport", ["stdio", "tcp"])
class TestTracePropagation:
    def _serve_one(self, service: SolveService, transport: str, line: str) -> dict:
        if transport == "stdio":
            responses: list = []
            served = serve_stream(service, [line], responses.append)
            assert served == 1
        else:
            tcp = TcpTransport(port=0)
            host, port = tcp.start(service)
            try:
                responses = request_lines_over_tcp(host, port, [line])
            finally:
                tcp.close()
        assert len(responses) == 1
        return json.loads(responses[0])

    def test_trace_reaches_the_engine(self, executor, transport):
        trace_id = new_trace_id(f"prop-{executor}-{transport}")
        workers = 1 if executor == "thread" else 2
        with SolveService(
            workers=workers, executor=executor, store_capacity=0
        ) as service:
            body = self._serve_one(service, transport, _request_line(trace_id))
        assert body["ok"] is True
        trace_dict = get_trace(trace_id)
        assert trace_dict is not None, "completed trace should be buffered"
        names = {entry["name"] for entry in trace_dict["spans"]}
        assert "service.queued" in names
        assert "service.execute" in names
        if executor == "thread":
            # The solve runs on the recording thread: engine spans inline.
            assert "service.session_solve" in names
            assert "engine.solve_spec" in names
        else:
            # The worker records its own spans; the coordinator grafts them.
            assert "service.dispatch" in names
            assert "worker.solve" in names
            assert "engine.solve_spec" in names

    def test_untraced_requests_unaffected(self, executor, transport):
        workers = 1 if executor == "thread" else 2
        line = json.dumps(
            {
                "id": "plain",
                "edges": [list(edge) for edge in CLIQUE_EDGES],
                "algorithm": "gas",
                "budget": 1,
            }
        )
        with SolveService(
            workers=workers, executor=executor, store_capacity=0
        ) as service:
            body = self._serve_one(service, transport, line)
        assert body["ok"] is True


# ---------------------------------------------------------------------------
# Byte identity: observability must never change a result
# ---------------------------------------------------------------------------
class TestObsIdentity:
    def _spec(self, name: str, request_id: str, trace_id=None) -> SolveSpec:
        solver = get_solver(name)
        params = {"seed": 5, "repetitions": 2} if solver.randomized else {}
        return SolveSpec(
            request_id=request_id,
            edges=CLIQUE_EDGES,
            algorithm=name,
            budget=1 if name == "exact" else 2,
            params=params,
            trace_id=trace_id,
        )

    def test_all_solvers_byte_identical_obs_on_off(self):
        results_off: dict = {}
        with SolveService(workers=1, store_capacity=0) as service:
            assert default_registry() is None
            for name in available_solvers():
                outcome = service.solve(self._spec(name, f"off-{name}"))
                assert outcome.ok, outcome.error
                results_off[name] = canonical_json(outcome.result)

        armed = MetricsRegistry()
        previous = set_default_registry(armed)
        try:
            with SolveService(workers=1, store_capacity=0) as service:
                for name in available_solvers():
                    outcome = service.solve(
                        self._spec(name, f"on-{name}", trace_id=new_trace_id("id"))
                    )
                    assert outcome.ok, outcome.error
                    assert canonical_json(outcome.result) == results_off[name]
        finally:
            set_default_registry(previous)
        # The armed registry actually saw the kernel-level hooks.
        snapshot = armed.snapshot()
        assert any(
            name.startswith("kernel.peel_s") for name in snapshot["histograms"]
        )


# ---------------------------------------------------------------------------
# Wire and CLI exposition
# ---------------------------------------------------------------------------
class TestWireExposition:
    def test_parse_control_line_metrics(self):
        op, payload = parse_control_line('{"op": "metrics"}')
        assert op == "metrics"
        assert parse_control_line('{"op": "health"}')[0] == "health"
        assert parse_control_line('{"edges": [[1, 2]]}') is None
        with pytest.raises(ProtocolError, match="unknown control op"):
            parse_control_line('{"op": "selfdestruct"}')

    def test_metrics_op_over_stream(self):
        responses: list = []
        lines = [
            _request_line(new_trace_id("wire"), request_id="warm-1"),
            '{"op": "metrics"}',
            '{"op": "health"}',
        ]
        with SolveService(workers=1) as service:
            serve_stream(service, lines, responses.append)
        assert len(responses) == 3
        metrics = json.loads(responses[1])
        assert metrics["op"] == "metrics"
        assert metrics["status"] == "ok"
        assert metrics["uptime_s"] >= 0.0
        assert metrics["counters"]["service.requests"] == 1
        assert metrics["counters"]["engine.solves"] == 1
        assert metrics["counters"]["sessions.misses"] == 1
        solve_hist = metrics["histograms"]["service.solve_s"]
        assert solve_hist["count"] == 1
        for key in ("p50", "p95", "p99", "buckets", "sum", "min", "max"):
            assert key in solve_hist
        assert "service.queue_wait_s" in metrics["histograms"]
        assert "engine.dirty_closure_edges" in metrics["histograms"]

        health = json.loads(responses[2])
        assert health["op"] == "health"
        assert health["uptime_s"] >= 0.0
        summary = health["metrics"]
        assert summary["requests"] == 1
        assert set(summary) >= {"errors", "shed", "expired", "solve_p95_s"}

    def test_metrics_text_is_prometheus(self):
        with SolveService(workers=1) as service:
            service.solve(
                SolveSpec(
                    request_id="prom", edges=CLIQUE_EDGES, algorithm="gas", budget=1
                )
            )
            text = service.metrics_text()
        assert "# TYPE service_requests counter" in text
        assert "service_requests 1" in text
        assert 'service_solve_s_bucket{le="+Inf"} 1' in text

    def test_store_counters_mirror_into_registry(self):
        spec = SolveSpec(
            request_id="memo", edges=CLIQUE_EDGES, algorithm="gas", budget=1
        )
        # session_capacity=0: every request runs on a cold session, so the
        # repeat is the cross-session result store's alone.
        with SolveService(workers=1, session_capacity=0) as service:
            service.solve(spec)
            service.solve(spec)
            snapshot = service.metrics.snapshot()
            stats = service.stats()
        assert snapshot["counters"]["store.hits"] == 1
        assert snapshot["counters"]["store.misses"] == 1
        assert snapshot["counters"]["service.store_hits"] == 1
        assert snapshot["counters"]["sessions.misses"] == 2
        assert snapshot["gauges"]["store.size"] == 1.0
        # Legacy dict shapes stay intact.
        assert stats["store_hits"] == 1
        assert stats["result_store"] == {
            "hits": 1,
            "misses": 1,
            "size": 1,
            "capacity": 256,
        }
        assert stats["sessions"]["misses"] == 2

    def test_two_services_do_not_share_counters(self):
        spec = SolveSpec(
            request_id="iso", edges=CLIQUE_EDGES, algorithm="gas", budget=1
        )
        with SolveService(workers=1) as a, SolveService(workers=1) as b:
            a.solve(spec)
            assert a.metrics.snapshot()["counters"]["service.requests"] == 1
            assert b.metrics.snapshot()["counters"].get("service.requests", 0) == 0


class TestCliExposition:
    def test_solve_trace_prints_span_tree(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "fig3.txt"
        write_edge_list(paper_figure3_graph(), path)
        assert (
            main(
                ["solve", "--edge-list", str(path), "--algorithm", "gas", "-b", "1", "--trace"]
            )
            == 0
        )
        err = capsys.readouterr().err
        assert "trace cli-" in err
        assert "cli.solve" in err
        assert "engine.solve_spec" in err

    def test_obs_subcommand_scrapes_a_live_server(self, capsys):
        from repro.cli import main

        service = SolveService(workers=1)
        tcp = TcpTransport(port=0)
        host, port = tcp.start(service)
        try:
            service.solve(
                SolveSpec(
                    request_id="seed", edges=CLIQUE_EDGES, algorithm="gas", budget=1
                )
            )
            assert main(["obs", "--port", str(port)]) == 0
            body = json.loads(capsys.readouterr().out)
            assert body["op"] == "metrics"
            assert body["counters"]["service.requests"] == 1

            assert main(["obs", "--port", str(port), "--op", "health"]) == 0
            health = json.loads(capsys.readouterr().out)
            assert health["op"] == "health"
            assert "uptime_s" in health

            assert main(["obs", "--port", str(port), "--format", "prom"]) == 0
            prom = capsys.readouterr().out
            assert "# TYPE service_requests counter" in prom

            # Prometheus rendering only makes sense for the metrics op.
            assert (
                main(["obs", "--port", str(port), "--op", "health", "--format", "prom"])
                == 2
            )
        finally:
            tcp.close()
            service.close()


# ---------------------------------------------------------------------------
# Structured logs
# ---------------------------------------------------------------------------
class TestLogs:
    def _capture(self):
        logger = get_logger("obs-test")
        logger.setLevel(logging.DEBUG)
        logger.propagate = False
        stream = io.StringIO()
        handler = logging.StreamHandler(stream)
        handler.setFormatter(JsonLineFormatter())
        logger.addHandler(handler)
        return logger, handler, stream

    def test_log_event_emits_one_json_line(self):
        logger, handler, stream = self._capture()
        try:
            log_event(logger, "request_shed", level=logging.INFO, draining=True)
        finally:
            logger.removeHandler(handler)
        line = stream.getvalue().strip()
        payload = json.loads(line)
        assert payload["event"] == "request_shed"
        assert payload["level"] == "INFO"
        assert payload["fields"] == {"draining": True}
        assert payload["logger"].startswith("repro.")
        assert "trace_id" not in payload

    def test_log_event_attaches_active_trace_id(self):
        logger, handler, stream = self._capture()
        buffer = TraceBuffer(capacity=2)
        try:
            with recording("t-logged", buffer=buffer):
                log_event(logger, "inside", level=logging.INFO)
        finally:
            logger.removeHandler(handler)
        payload = json.loads(stream.getvalue().strip())
        assert payload["trace_id"] == "t-logged"

    def test_disabled_level_emits_nothing(self):
        logger, handler, stream = self._capture()
        logger.setLevel(logging.WARNING)
        try:
            log_event(logger, "too_quiet", level=logging.DEBUG, n=1)
        finally:
            logger.removeHandler(handler)
        assert stream.getvalue() == ""
