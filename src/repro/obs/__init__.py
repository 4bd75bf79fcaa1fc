"""Runtime telemetry for the PoEm stack (metrics, tracing, logs, HTTP).

A dependency-free observability plane for the real-time emulator:

* :mod:`repro.obs.metrics` — thread-safe :class:`Counter` /
  :class:`Gauge` / :class:`Histogram` primitives with per-thread shards
  folded on read, collected in a :class:`MetricsRegistry` that renders
  Prometheus text;
* :mod:`repro.obs.tracing` — 1-in-N sampled packet traces through the
  paper's §3.2 Steps 1–7, including the scheduler-lag deadline metric;
* :mod:`repro.obs.logging` — structured JSON logs for the stack's
  failure/lifecycle events;
* :mod:`repro.obs.httpd` — the localhost ``/metrics`` + ``/health`` +
  ``/trace`` (+ ``/profile``, ``/timeline``) endpoint (import it by its
  module path: the package does not load ``http.server`` for an endpoint
  that is off by default);
* :mod:`repro.obs.profiler` — the continuous wall-clock sampling
  profiler (folded stacks, per-thread self-time, cluster merge);
* :mod:`repro.obs.timeline` — Chrome trace-event (Perfetto) export of
  spans, shard hops, overload transitions, and profiler samples;
* :mod:`repro.obs.telemetry` — the per-deployment bundle wiring it all
  together.

See docs/observability.md for the metric catalog, trace schema, and a
scrape example.
"""

from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    default_latency_buckets,
)
from .tracing import PIPELINE_STAGES, PipelineTracer, Trace, TraceSpan, format_span
from .telemetry import Telemetry
from .profiler import SamplingProfiler, format_profile
from .timeline import build_timeline, timeline_from_dataset, write_timeline
from .logging import JsonFormatter, configure, get_logger, log_event, set_level

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricFamily",
    "MetricsRegistry",
    "default_latency_buckets",
    "PIPELINE_STAGES",
    "PipelineTracer",
    "Trace",
    "TraceSpan",
    "format_span",
    "Telemetry",
    "SamplingProfiler",
    "format_profile",
    "build_timeline",
    "timeline_from_dataset",
    "write_timeline",
    "JsonFormatter",
    "configure",
    "get_logger",
    "log_event",
    "set_level",
]
