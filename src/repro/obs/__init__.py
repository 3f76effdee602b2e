"""Unified observability: metrics, request tracing and structured logs.

``repro.obs`` is the telemetry layer the serving stack reports through:

* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters, gauges and fixed-bucket latency histograms (p50/p95/p99
  estimated from the buckets), with a JSON snapshot and a Prometheus-style
  text rendering, plus the injectable process-global default registry the
  CLI's ``serve --metrics`` arms;
* :mod:`repro.obs.tracing` — lightweight spans (``with span("..."): ...``)
  recorded per request under an optional ``SolveSpec.trace_id``, propagated
  through thread *and* process executors and both transports, kept in a
  bounded ring buffer of completed traces and exportable as Chrome
  trace-event JSON;
* :mod:`repro.obs.logs` — structured JSON log lines (event, trace_id,
  fields) on stdlib logging.

Design invariants (asserted by ``tests/test_obs.py``):

* **Results never change.**  Observability records how a solve was served,
  never what it computed — canonical results are byte-identical with obs
  on, off or absent, and ``trace_id`` is excluded from
  :meth:`repro.api.SolveSpec.signature` and from wire bytes when unset.
* **Disabled-path overhead is near zero.**  ``span()`` without an active
  trace is a no-op, and kernel-level hooks fire only when the
  process-global default registry is armed.
* This package imports **nothing** from the rest of ``repro``, so every
  layer (spec, engine, service, kernel) can depend on it without cycles.
"""

from repro.obs.logs import (
    JsonLineFormatter,
    configure_json_logging,
    get_logger,
    log_event,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    now,
    prometheus_from_snapshot,
    set_default_registry,
)
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
    trace_buffer,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "JsonLineFormatter",
    "MetricsRegistry",
    "Trace",
    "TraceBuffer",
    "configure_json_logging",
    "current_trace",
    "current_trace_id",
    "default_registry",
    "export_chrome_trace",
    "format_span_tree",
    "get_logger",
    "get_trace",
    "log_event",
    "new_trace_id",
    "now",
    "prometheus_from_snapshot",
    "record_foreign_trace",
    "recording",
    "set_default_registry",
    "span",
    "trace_buffer",
]
