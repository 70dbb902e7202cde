"""End-to-end observability: metrics, request tracing, serving telemetry log.

The stack spans four layers (client -> pre-forked PlanServer workers ->
PlannerService/search -> event simulator); this package is the one substrate
they all report into:

* :mod:`repro.obs.metrics` — a thread-safe registry of counters, gauges, and
  fixed-bucket histograms with merge semantics (per-worker snapshots sum
  into a fleet view) and a Prometheus text formatter;
* :mod:`repro.obs.tracing` — lightweight spans with a context-local current
  span; trace ids travel the serve wire protocol, so one request's life
  across process boundaries exports as a single Chrome/Perfetto timeline;
* :mod:`repro.obs.reqlog` — an append-only, size-rotated JSONL log of served
  requests with crash-safe line-atomic appends;
* :mod:`repro.obs.rollup` — the compaction pass turning raw logs into
  per-signature aggregates that feed traffic-weighted cache eviction.

Everything is off-by-default-cheap: components wired to
:data:`~repro.obs.metrics.NULL_REGISTRY` / :data:`~repro.obs.tracing.NULL_TRACER`
pay a single attribute check per request.  See ``docs/observability.md``.
"""

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
    NullMetricsRegistry,
    empty_snapshot,
    instrument_name,
    merge_snapshots,
    render_prometheus,
)
from repro.obs.reqlog import (
    RequestLog,
    RequestRecord,
    discover_logs,
    generations,
    iter_records,
)
from repro.obs.rollup import Rollup, SignatureRollup, percentile, rollup_requests
from repro.obs.tracing import (
    NULL_TRACER,
    SpanRecord,
    Tracer,
    current_span_id,
    current_trace_id,
    new_id,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullMetricsRegistry",
    "empty_snapshot",
    "instrument_name",
    "merge_snapshots",
    "render_prometheus",
    "RequestLog",
    "RequestRecord",
    "discover_logs",
    "generations",
    "iter_records",
    "Rollup",
    "SignatureRollup",
    "percentile",
    "rollup_requests",
    "NULL_TRACER",
    "SpanRecord",
    "Tracer",
    "current_span_id",
    "current_trace_id",
    "new_id",
]
