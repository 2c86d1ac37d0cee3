"""Observability: tracing, metrics, memory, events, ledger, provenance.

Zero-dependency instrumentation threaded through the staged executor,
both backends, the fault layer, and the CLI:

* ``events`` — the executor's one observer channel: one event per
  run/stage boundary, cache hit, task chunk and absorbed fault, through
  composable sinks: a JSONL ``--events`` stream, a TTY progress line,
  in-memory recording for tests.
* ``trace`` — the :class:`Tracer` sink folds those events into a
  hierarchical span tree (run → stage → task-chunk) with cache hits,
  fault retries, slowdowns and pool rebuilds as instants, exported as
  JSONL and Chrome trace-event JSON (Perfetto / ``chrome://tracing``).
  Opt-in: an untraced run attaches no tracer, and a run's ``--events``
  stream rebuilds the same trace offline.
* ``metrics`` — a process-local registry of named counters, gauges, and
  latency histograms; worker snapshots ride the ``TaskEvent`` return
  path and are merged by the executor into the run manifest's
  ``metrics`` section.
* ``memory`` — stage-boundary peak-RSS sampling (always on, one syscall
  per boundary) plus opt-in tracemalloc allocation deltas, recorded
  into run-manifest/5.
* ``ledger`` — an append-only, checksummed on-disk history of every
  pipeline/arena run (schema ``repro-ledger/1``), queryable via
  ``repro-hunt runs``.
* ``sentinel`` — drift detection: the newest run against the median of
  its matching-key ledger history, with configurable tolerances.
* ``exporters`` — Prometheus/OpenMetrics text exposition of the
  metrics registry and ledger summary (``repro-hunt metrics export``).
* ``provenance`` — a typed per-domain evidence trail recording which
  scan snapshots, pDNS rows, CT entries, and routing decisions drove
  each funnel transition; rendered by ``repro-hunt explain``.

See docs/observability.md for the span model and naming conventions.
"""

from repro.obs.events import (
    EVENTS_SCHEMA,
    CompositeEventSink,
    EventRecorder,
    EventSink,
    JsonlEventSink,
    NULL_EVENTS,
    TTYProgressSink,
    read_events,
)
from repro.obs.exporters import render_openmetrics, validate_openmetrics
from repro.obs.ledger import (
    LEDGER_SCHEMA,
    RunLedger,
    RunRecord,
    ledger_key,
)
from repro.obs.memory import MemorySampler, peak_rss_bytes
from repro.obs.metrics import (
    BUCKET_BOUNDS,
    MetricsRegistry,
    drain_worker_snapshot,
    get_registry,
    mark_worker,
    set_registry,
)
from repro.obs.provenance import (
    EVIDENCE_KINDS,
    EvidenceRef,
    FunnelTransition,
    format_provenance,
    routing_ref,
    trail_from_inspection,
    trail_from_pivot,
    transitions_from_dicts,
    transitions_to_dicts,
)
from repro.obs.sentinel import SentinelReport, Tolerances, check_run, format_sentinel
from repro.obs.trace import Span, SpanEvent, Tracer

__all__ = [
    "BUCKET_BOUNDS",
    "MetricsRegistry",
    "drain_worker_snapshot",
    "get_registry",
    "mark_worker",
    "set_registry",
    "EVENTS_SCHEMA",
    "CompositeEventSink",
    "EventRecorder",
    "EventSink",
    "JsonlEventSink",
    "NULL_EVENTS",
    "TTYProgressSink",
    "read_events",
    "render_openmetrics",
    "validate_openmetrics",
    "LEDGER_SCHEMA",
    "RunLedger",
    "RunRecord",
    "ledger_key",
    "MemorySampler",
    "peak_rss_bytes",
    "SentinelReport",
    "Tolerances",
    "check_run",
    "format_sentinel",
    "EVIDENCE_KINDS",
    "EvidenceRef",
    "FunnelTransition",
    "format_provenance",
    "routing_ref",
    "trail_from_inspection",
    "trail_from_pivot",
    "transitions_from_dicts",
    "transitions_to_dicts",
    "Span",
    "SpanEvent",
    "Tracer",
]
