"""The chaos suite: deterministic fault injection against the serving stack.

Every fault here is *named in a spec* (see :mod:`repro.service.faults`), so
these tests are reproducible, not probabilistic: a worker crash is a spec
that says ``fault=crash``, a slow solve is ``sleep_s=...``, a vanished
client is an explicit RST.  The acceptance property is threefold — every
failed outcome carries the correct structured ``error_kind``/``retryable``
taxonomy, nothing hangs (asserted via drain/close), and non-faulted
requests stay byte-identical to a fault-free run across
{thread, process} × {stdio, tcp}.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.api import SolveSpec, canonical_result
from repro.api.spec import ERROR_KINDS, SolveOutcome, SpecError
from repro.graph.generators import community_graph
from repro.service import (
    AdmissionControl,
    DeadlineExceeded,
    Overloaded,
    RetryPolicy,
    SolveService,
    TcpTransport,
    WorkerCrashed,
    classify_exception,
    remaining_deadline,
    request_lines_over_tcp,
    run_batch,
    serve_stream,
)
from repro.service.faults import (
    FAULT_SOLVER,
    install_fault_solver,
    send_and_drop,
    uninstall_fault_solver,
)
from repro.utils.errors import ReproError


@pytest.fixture(scope="module", autouse=True)
def fault_solver():
    """Arm fault injection for this module; leave no trace afterwards.

    Other test files assert exact solver tables (the CLI's solver list, the
    benchmark guard's determinism grid), so the test-only solver must not
    outlive the chaos suite.
    """
    install_fault_solver()
    yield
    uninstall_fault_solver()


def small_graph(seed: int):
    return community_graph([10, 8], p_in=0.7, p_out=0.05, seed=seed)


EDGES = tuple(small_graph(7).edge_list())


def fault_spec(request_id: str, fault: str = "none", **params) -> SolveSpec:
    merged = {"fault": fault, **params}
    deadline_s = merged.pop("deadline_s", None)
    return SolveSpec(
        request_id=request_id,
        edges=EDGES,
        algorithm=FAULT_SOLVER,
        budget=2,
        params=merged,
        deadline_s=deadline_s,
    )


def canonical_json(outcome: SolveOutcome) -> str:
    return json.dumps(outcome.canonical(), sort_keys=True)


# ---------------------------------------------------------------------------
# Schema compatibility: deadline_s and the taxonomy are strictly additive
# ---------------------------------------------------------------------------
class TestSchemaCompatibility:
    def test_old_specs_round_trip_byte_identically(self):
        spec = SolveSpec(dataset="college", algorithm="gas", budget=3)
        payload = spec.to_json_dict()
        assert "deadline_s" not in payload
        assert SolveSpec.from_json_dict(payload) == spec
        assert SolveSpec.from_json_dict(payload).canonical_json() == spec.canonical_json()

    def test_deadline_excluded_from_signature(self):
        # A deadline bounds *serving*, never the result: cached answers are
        # always within deadline, so the cache identity must not split.
        base = SolveSpec(dataset="college", algorithm="gas", budget=3)
        with_deadline = SolveSpec(
            dataset="college", algorithm="gas", budget=3, deadline_s=2.5
        )
        assert base.signature() == with_deadline.signature()

    def test_deadline_round_trips_and_validates(self):
        spec = SolveSpec(dataset="college", deadline_s=1.5)
        assert spec.to_json_dict()["deadline_s"] == 1.5
        assert SolveSpec.from_json_dict(spec.to_json_dict()) == spec
        for bad in (0, -1, "soon", True, float("nan"), float("inf"), 10**400):
            with pytest.raises(SpecError, match="deadline_s"):
                SolveSpec(dataset="college", deadline_s=bad)
        # JSON decoders read NaN, Infinity and 1e309 as non-finite floats.
        for text in ("NaN", "Infinity", "1e309"):
            with pytest.raises(SpecError, match="deadline_s"):
                SolveSpec.from_json_line(f'{{"dataset": "college", "deadline_s": {text}}}')

    def test_success_outcomes_keep_their_byte_shape(self):
        outcome = SolveOutcome(request_id="r", ok=True, result=None)
        assert "error_kind" not in outcome.to_json_dict()
        assert "retryable" not in outcome.to_json_dict()
        assert "error_kind" not in outcome.canonical()

    def test_failed_outcome_carries_and_validates_taxonomy(self):
        outcome = SolveOutcome(
            request_id="r", ok=False, error="x", error_kind="timeout", retryable=True
        )
        payload = outcome.to_json_dict()
        assert payload["error_kind"] == "timeout" and payload["retryable"] is True
        assert SolveOutcome.from_json_dict(payload) == outcome
        assert outcome.canonical()["error_kind"] == "timeout"
        with pytest.raises(SpecError, match="error_kind"):
            SolveOutcome(ok=False, error="x", error_kind="oops")


# ---------------------------------------------------------------------------
# Resilience primitives
# ---------------------------------------------------------------------------
class TestRetryPolicy:
    def test_schedule_is_deterministic_and_bounded(self):
        policy = RetryPolicy(max_attempts=5, base_delay_s=0.1, backoff=2.0, max_delay_s=0.3)
        assert policy.schedule() == (0.1, 0.2, 0.3, 0.3)
        assert policy.delay(0) == 0.0
        assert RetryPolicy(max_attempts=1).schedule() == ()

    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            RetryPolicy(backoff=0.5)
        with pytest.raises(ValueError, match="base_delay_s"):
            RetryPolicy(base_delay_s=-1)


class TestAdmissionControl:
    def test_unbounded_by_default(self):
        admission = AdmissionControl(workers=2)
        assert not admission.bounded and admission.limit() is None
        assert all(admission.try_admit() for _ in range(1000))

    def test_window_is_inflight_plus_queue(self):
        admission = AdmissionControl(workers=2, max_queue_depth=1)
        assert admission.limit() == 3  # max_inflight defaults to workers
        assert [admission.try_admit() for _ in range(4)] == [True, True, True, False]
        admission.finish()
        assert admission.try_admit()

    def test_group_admission_is_all_or_nothing(self):
        admission = AdmissionControl(workers=1, max_inflight=1, max_queue_depth=2)
        assert not admission.try_admit(4)
        assert admission.snapshot()["admitted"] == 0
        assert admission.try_admit(3)

    def test_wait_idle(self):
        admission = AdmissionControl(workers=1, max_queue_depth=0)
        assert admission.wait_idle(timeout=0.1)
        admission.try_admit()
        assert not admission.wait_idle(timeout=0.05)
        admission.start()
        admission.finish()
        assert admission.wait_idle(timeout=0.1)


class TestTaxonomy:
    def test_classify_exception(self):
        assert classify_exception(DeadlineExceeded("x")) == ("timeout", True)
        assert classify_exception(Overloaded("x")) == ("overloaded", True)
        assert classify_exception(WorkerCrashed("x")) == ("worker_crash", True)
        assert classify_exception(ReproError("x")) == ("invalid", False)
        assert classify_exception(RuntimeError("x")) == ("internal", False)

    def test_remaining_deadline(self):
        assert remaining_deadline(None, 0.0) is None
        assert remaining_deadline(5.0, 1.0, now=2.0) == 4.0
        assert remaining_deadline(1.0, 0.0, now=2.0) < 0
        assert remaining_deadline(1e10, 0.0, now=1.0) == threading.TIMEOUT_MAX


# ---------------------------------------------------------------------------
# Deadlines through the service
# ---------------------------------------------------------------------------
class TestDeadlines:
    def test_queue_side_expiry_thread_executor(self):
        # One worker, one slow solve in front: the deadline job expires in
        # the queue and is never dispatched.
        with SolveService(workers=1) as service:
            blocker = service.submit(fault_spec("slow", sleep_s=0.4))
            expired = service.submit(fault_spec("tight", deadline_s=0.05))
            outcome = expired.result()
            assert not outcome.ok
            assert outcome.error_kind == "timeout" and outcome.retryable
            assert "queue" in outcome.error
            assert blocker.result().ok
            assert service.stats()["expired"] == 1

    def test_default_deadline_must_be_finite_and_positive(self):
        for bad in (0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="default_deadline_s"):
                SolveService(workers=1, default_deadline_s=bad)

    def test_default_deadline_applies_to_bare_specs(self):
        with SolveService(workers=1, default_deadline_s=0.05) as service:
            blocker = service.submit(fault_spec("slow", sleep_s=0.4))
            outcome = service.submit(fault_spec("bare")).result()
            assert outcome.error_kind == "timeout"
            assert blocker.result().ok

    def test_deadline_past_the_longest_wait_is_served_by_processes(self):
        # 1e10 s is finite but past threading.TIMEOUT_MAX (~292 years), the
        # longest wait a future accepts: the dispatch waits that long
        # instead of failing as an internal OverflowError.
        with SolveService(workers=1, executor="process") as service:
            outcome = service.solve(fault_spec("long", deadline_s=1e10))
            assert outcome.ok, outcome.error
            assert service.stats()["pool_rebuilds"] == 0

    @pytest.mark.slow
    def test_dispatch_side_timeout_kills_and_rebuilds_process_pool(self):
        with SolveService(workers=1, executor="process") as service:
            started = time.perf_counter()
            outcome = service.solve(
                fault_spec("stuck", sleep_s=30.0, deadline_s=0.5)
            )
            elapsed = time.perf_counter() - started
            assert outcome.error_kind == "timeout" and outcome.retryable
            assert elapsed < 10  # nowhere near the 30s sleep
            stats = service.stats()
            assert stats["dispatch_timeouts"] == 1
            assert stats["pool_rebuilds"] == 1
            # The rebuilt pool serves.
            assert service.solve(fault_spec("after")).ok


# ---------------------------------------------------------------------------
# Worker-crash recovery (process executor)
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestWorkerCrashRecovery:
    def test_crash_is_retried_then_classified(self):
        policy = RetryPolicy(max_attempts=2, base_delay_s=0.01)
        with SolveService(workers=1, executor="process", retry_policy=policy) as service:
            outcome = service.solve(fault_spec("boom", fault="crash"))
            assert not outcome.ok
            assert outcome.error_kind == "worker_crash" and outcome.retryable
            stats = service.stats()
            assert stats["worker_crashes"] == 2  # initial + 1 retry
            assert stats["retries"] == 1
            assert stats["pool_rebuilds"] == 2
            # Recovery: the rebuilt pool serves subsequent work.
            assert service.solve(fault_spec("after")).ok

    def test_crash_mid_batch_spares_the_good_jobs(self):
        # A same-graph group ships as ONE worker task; the crash job sleeps
        # briefly so nothing else in the group is mid-flight, then kills the
        # worker.  The fallback re-dispatches the good jobs concurrently.
        with SolveService(workers=2, executor="process") as service:
            specs = [
                fault_spec("good-0"),
                fault_spec("boom", fault="crash", sleep_s=0.2),
                fault_spec("good-1", nonce=1),
                fault_spec("good-2", nonce=2),
            ]
            outcomes = run_batch(service, specs)
            by_id = {o.request_id: o for o in outcomes}
            assert by_id["boom"].error_kind == "worker_crash"
            for rid in ("good-0", "good-1", "good-2"):
                assert by_id[rid].ok, by_id[rid].error
            assert service.stats()["group_retries"] == 1

        # Byte-identity of the survivors vs a fault-free run.
        with SolveService(workers=2, executor="process") as service:
            clean = run_batch(
                service,
                [fault_spec("good-0"), fault_spec("good-1", nonce=1), fault_spec("good-2", nonce=2)],
            )
        clean_by_id = {o.request_id: canonical_json(o) for o in clean}
        for rid, expected in clean_by_id.items():
            assert canonical_json(by_id[rid]) == expected

    def test_thread_executor_refuses_crash_faults(self):
        # os._exit in the coordinator process would kill the test run; the
        # fault solver refuses and the refusal classifies as invalid.
        with SolveService(workers=1) as service:
            outcome = service.solve(fault_spec("nope", fault="crash"))
            assert outcome.error_kind == "invalid" and not outcome.retryable
            assert "refused" in outcome.error


# ---------------------------------------------------------------------------
# Admission control / overload shedding
# ---------------------------------------------------------------------------
class TestOverloadShedding:
    def test_hammer_sheds_with_fast_structured_rejections(self):
        with SolveService(workers=2, max_inflight=1, max_queue_depth=1) as service:
            results = []
            lock = threading.Lock()

            def hammer(worker_id: int) -> None:
                for i in range(4):
                    spec = fault_spec(
                        f"h{worker_id}-{i}", sleep_s=0.05, nonce=(worker_id, i)
                    )
                    outcome = service.submit(spec).result()
                    with lock:
                        results.append(outcome)

            threads = [threading.Thread(target=hammer, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()

            assert len(results) == 32
            shed = [o for o in results if not o.ok]
            served = [o for o in results if o.ok]
            assert shed, "an 8-thread hammer against a 2-slot window must shed"
            assert served, "the window itself must keep serving"
            for outcome in shed:
                assert outcome.error_kind == "overloaded"
                assert outcome.retryable
                assert "admission queue full" in outcome.error
                # Fast structured reject: shed requests never solve.
                assert outcome.timings["solve_s"] < 0.05
            stats = service.stats()
            assert stats["shed"] == len(shed)
            assert service.drain(timeout=10)

    def test_shed_responses_do_not_touch_the_executor(self):
        with SolveService(workers=1, max_inflight=1, max_queue_depth=0) as service:
            blocker = service.submit(fault_spec("slow", sleep_s=0.3))
            started = time.perf_counter()
            shed = service.submit(fault_spec("excess")).result(timeout=0.1)
            assert time.perf_counter() - started < 0.1
            assert shed.error_kind == "overloaded"
            assert blocker.result().ok

    def test_group_shedding_is_all_or_nothing(self):
        with SolveService(workers=1, max_inflight=1, max_queue_depth=1) as service:
            blocker = service.submit(fault_spec("slow", sleep_s=0.3))
            group = service.submit_sequence(
                [fault_spec(f"g{i}", nonce=i) for i in range(5)]
            ).result()
            assert all(o.error_kind == "overloaded" for o in group)
            assert blocker.result().ok


# ---------------------------------------------------------------------------
# Drain + health
# ---------------------------------------------------------------------------
class TestDrainAndHealth:
    def test_drain_finishes_inflight_then_sheds(self):
        with SolveService(workers=2) as service:
            inflight = [
                service.submit(fault_spec(f"d{i}", sleep_s=0.1, nonce=i))
                for i in range(4)
            ]
            assert service.drain(timeout=10)
            assert all(f.result().ok for f in inflight)
            post = service.submit(fault_spec("late")).result()
            assert post.error_kind == "overloaded"
            assert "draining" in post.error
            assert service.health()["status"] == "draining"

    def test_health_snapshot_shape(self):
        with SolveService(workers=2, max_queue_depth=4, default_deadline_s=9.0) as service:
            health = service.health()
            assert health["status"] == "ok"
            assert health["workers"] == 2
            assert health["admission"]["max_queue_depth"] == 4
            assert health["default_deadline_s"] == 9.0
            assert health["retry_policy"]["max_attempts"] == RetryPolicy().max_attempts
            assert health["process_pool"] is None  # thread executor
            json.dumps(health)  # must stay wire-serializable
        assert service.health()["status"] == "closed"

    def test_health_on_the_line_protocol(self):
        written = []
        with SolveService(workers=1) as service:
            lines = [
                json.dumps({"op": "health"}),
                json.dumps(fault_spec("solve-1").to_json_dict()),
            ]
            count = serve_stream(service, lines, written.append)
        assert count == 1  # control lines are not solve requests
        health = json.loads(written[0])
        assert health["op"] == "health" and health["status"] == "ok"
        assert json.loads(written[1])["ok"] is True

    def test_session_cache_clear(self):
        service = SolveService(workers=1)
        assert service.solve(fault_spec("warm")).ok
        assert len(service.sessions) == 1
        assert service.sessions.clear() == 1
        assert len(service.sessions) == 0
        service.close()


# ---------------------------------------------------------------------------
# Transport faults
# ---------------------------------------------------------------------------
class TestTransportFaults:
    def test_malformed_json_and_half_close_over_tcp(self):
        with SolveService(workers=1) as service:
            transport = TcpTransport(port=0)
            host, port = transport.start(service)
            try:
                # request_lines_over_tcp half-closes its write side after
                # sending — the "half-closed connection" path by design.
                lines = request_lines_over_tcp(
                    host,
                    port,
                    [
                        "{definitely not json",
                        json.dumps({"op": "nope"}),
                        json.dumps(fault_spec("good").to_json_dict()),
                    ],
                )
                assert len(lines) == 3
                bad = json.loads(lines[0])
                assert bad["ok"] is False and bad["error_kind"] == "invalid"
                assert bad["retryable"] is False
                bad_op = json.loads(lines[1])
                assert bad_op["error_kind"] == "invalid"
                assert "unknown control op" in bad_op["error"]
                assert json.loads(lines[2])["ok"] is True
            finally:
                assert transport.close(drain=True) == []

    def test_client_dropping_connection_does_not_kill_the_server(self):
        with SolveService(workers=2) as service:
            transport = TcpTransport(port=0)
            host, port = transport.start(service)
            try:
                for i in range(3):
                    send_and_drop(
                        host,
                        port,
                        [json.dumps(fault_spec(f"drop-{i}", sleep_s=0.1, nonce=i).to_json_dict())],
                    )
                # The server must still answer a well-behaved client, and
                # the dropped clients' admitted work must fully finish
                # (drain succeeding proves no leaked admission slots).
                lines = request_lines_over_tcp(
                    host, port, [json.dumps(fault_spec("alive").to_json_dict())]
                )
                assert json.loads(lines[0])["ok"] is True
                assert service.drain(timeout=10)
            finally:
                leaked = transport.close(drain=True, timeout=10)
                assert leaked == []

    def test_close_reports_stuck_handlers_instead_of_silence(self):
        # A handler stuck in a long solve refuses to join: close() must
        # *name* it rather than silently dropping the handle.
        with SolveService(workers=1) as service:
            transport = TcpTransport(port=0)
            host, port = transport.start(service)
            import socket as socket_module

            conn = socket_module.create_connection((host, port), timeout=10)
            conn.sendall(
                (json.dumps(fault_spec("stuck", sleep_s=1.5).to_json_dict()) + "\n").encode()
            )
            time.sleep(0.3)  # let the handler enter the solve
            leaked = transport.close(drain=True, timeout=0.2)
            assert leaked, "a stuck handler must be reported, not dropped"
            conn.close()
            assert service.drain(timeout=10)


# ---------------------------------------------------------------------------
# The acceptance grid: chaos run == clean run for every non-faulted request
# ---------------------------------------------------------------------------
@pytest.mark.slow
class TestChaosGrid:
    GOOD = [
        ("ok-gas", "gas"),
        ("ok-base", "base"),
        ("ok-faulty", FAULT_SOLVER),
    ]

    def good_specs(self):
        specs = []
        for rid, algorithm in self.GOOD:
            if algorithm == FAULT_SOLVER:
                specs.append(fault_spec(rid))
            else:
                specs.append(
                    SolveSpec(request_id=rid, edges=EDGES, algorithm=algorithm, budget=2)
                )
        return specs

    def fault_specs(self, executor: str):
        faults = [fault_spec("err", fault="error", message="injected")]
        if executor == "process":
            # Only the process executor can preempt a running solve
            # (dispatch-side timeout) or lose a worker; the thread
            # executor's queue-side expiry needs queue pressure and is
            # covered deterministically by TestDeadlines instead.
            faults.append(fault_spec("late", sleep_s=0.6, deadline_s=0.3))
            faults.append(fault_spec("boom", fault="crash", sleep_s=0.2))
        return faults

    EXPECTED_KINDS = {"err": "invalid", "late": "timeout", "boom": "worker_crash"}

    @pytest.fixture(scope="class")
    def clean_truth(self):
        with SolveService(workers=2) as service:
            outcomes = service.solve_many(self.good_specs())
        assert all(o.ok for o in outcomes)
        return {o.request_id: canonical_json(o) for o in outcomes}

    @pytest.mark.parametrize("executor", ["thread", "process"])
    @pytest.mark.parametrize("transport", ["stdio", "tcp"])
    def test_chaos_run_matches_clean_run(self, executor, transport, clean_truth):
        specs = self.good_specs() + self.fault_specs(executor)
        request_lines = [json.dumps(spec.to_json_dict()) for spec in specs]
        with SolveService(workers=2, executor=executor) as service:
            if transport == "tcp":
                tcp = TcpTransport(port=0)
                host, port = tcp.start(service)
                try:
                    response_lines = request_lines_over_tcp(host, port, request_lines)
                finally:
                    assert service.drain(timeout=30)
                    assert tcp.close(drain=True, timeout=30) == []
            else:
                response_lines = []
                serve_stream(service, request_lines, response_lines.append)
                assert service.drain(timeout=30)

        outcomes = [SolveOutcome.from_json_dict(json.loads(line)) for line in response_lines]
        by_id = {o.request_id: o for o in outcomes}
        assert len(by_id) == len(specs)
        # Non-faulted requests: byte-identical to the fault-free run.
        for rid, expected in clean_truth.items():
            assert by_id[rid].ok, by_id[rid].error
            assert canonical_json(by_id[rid]) == expected
        # Faulted requests: every outcome correctly classified.
        for rid, kind in self.EXPECTED_KINDS.items():
            if rid not in by_id:
                continue
            assert by_id[rid].ok is False
            assert by_id[rid].error_kind == kind, by_id[rid].error
            assert by_id[rid].retryable is (kind != "invalid")
