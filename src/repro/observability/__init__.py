"""Observability primitives: metrics, tracing, slow-op log, telemetry plane.

This package is dependency-free and imports nothing from the rest of
``repro``, so every layer (engine stages, service, WAL, replication) can
use it without cycles:

* :mod:`repro.observability.metrics` — thread-safe counters, gauges
  (including callback gauges), power-of-two-bucket histograms, labeled
  families, percentile estimation (:func:`histogram_quantiles`), and a
  :class:`MetricsRegistry` with Prometheus text / JSON exposition.
* :mod:`repro.observability.tracing` — the :class:`Span` tree threaded
  through query and ingest paths, the sampling :class:`Tracer`, the
  cross-process :class:`TraceContext` propagation header, and
  :class:`ExplainedResult` (``service.query(..., explain=True)``).
* :mod:`repro.observability.tracestore` — the bounded per-node
  :class:`TraceStore` ring of completed sampled traces (served at
  ``/traces``) and :func:`stitch_fragments`, the cross-node trace
  assembly behind ``/cluster/traces/<id>``.
* :mod:`repro.observability.slowlog` — the :class:`SlowOpLog` ring
  buffer behind ``service.recent_slow_ops()``, with a size-capped
  JSON-lines file sink.
* :mod:`repro.observability.exposition` — the network-facing telemetry
  plane: :class:`TelemetryServer` (``/metrics``, ``/healthz``,
  ``/readyz``, ``/stats``, ``/slowlog``, ``/traces``) and
  :class:`ClusterTelemetry` (the scraped ``/cluster`` view and the
  stitched ``/cluster/traces/<id>`` cross-node traces).
"""

from .exposition import ClusterTelemetry, TelemetryServer, http_get_json, scrape
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    LabeledMetric,
    MetricsRegistry,
    histogram_quantiles,
)
from .slowlog import SlowOpLog
from .tracestore import TraceStore, stitch_fragments
from .tracing import (
    ExplainedResult,
    Span,
    TraceContext,
    Tracer,
    new_span_id,
    new_trace_id,
)

__all__ = [
    "ClusterTelemetry",
    "Counter",
    "ExplainedResult",
    "Gauge",
    "Histogram",
    "LabeledMetric",
    "MetricsRegistry",
    "SlowOpLog",
    "Span",
    "TelemetryServer",
    "TraceContext",
    "TraceStore",
    "Tracer",
    "histogram_quantiles",
    "http_get_json",
    "new_span_id",
    "new_trace_id",
    "scrape",
    "stitch_fragments",
]
