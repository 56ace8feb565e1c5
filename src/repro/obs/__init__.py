"""Unified observability: metrics registry, tracer, flight recorder.

The layer has four public pieces, all zero-dependency:

* :class:`~repro.obs.registry.MetricsRegistry` — counters, gauges,
  and bounded-bucket histograms, rendered as Prometheus text
  exposition or one JSON snapshot;
* :class:`~repro.obs.tracer.Tracer` — per-slot span trees (slot →
  stage → per-user allocation) on the monotonic clock, streamed to a
  JSONL sink under a sampling knob;
* :class:`~repro.obs.flight.FlightRecorder` — a fixed ring of recent
  slot spans dumped automatically on anomalies (deadline miss,
  admission reject, write-watermark drop);
* :class:`~repro.obs.http.ObsHttpServer` — ``/metrics``, ``/healthz``
  and ``/snapshot`` over plain asyncio sockets.

:class:`~repro.obs.config.Obs` bundles the first three per process;
``repro obs`` (:mod:`repro.obs.cli`) tails, summarizes, diffs, and
scrapes what they produce.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.obs.buildinfo": (
            "BUILD_INFO_METRIC", "config_fingerprint", "register_build_info",
        ),
        "repro.obs.cluster": (
            "COORDINATOR_SHARD", "MERGE_CONFLICTS_METRIC", "SHARD_LABEL",
            "merge_conflicts", "merge_registries",
        ),
        "repro.obs.config": ("DEFAULT_SAMPLE_EVERY", "Obs", "ObsConfig"),
        "repro.obs.flight": (
            "AnyFlightRecorder", "FlightDump", "FlightRecorder",
            "NullFlightRecorder", "TRIGGER_ADMISSION_REJECT",
            "TRIGGER_DEADLINE_MISS", "TRIGGER_MIGRATION_STALL",
            "TRIGGER_SHARD_KILL", "TRIGGER_SHARD_RESPAWN",
            "TRIGGER_SLO_BREACH", "TRIGGER_WRITE_DROP", "TRIGGERS",
        ),
        "repro.obs.http": ("ObsHttpServer", "PROMETHEUS_CONTENT_TYPE"),
        "repro.obs.promtext": ("ExpositionSummary", "validate_exposition"),
        "repro.obs.registry": (
            "BucketHistogram", "Counter", "DEFAULT_LATENCY_BUCKETS_S",
            "Gauge", "MetricFamily", "MetricsRegistry",
        ),
        "repro.obs.slo": (
            "SLO_BREACHES_METRIC", "SLO_BURN_METRIC", "SLO_KINDS",
            "SloConfig", "SloEngine", "SloObjective", "SloSample",
            "SloStatus", "default_slo_config", "evaluate_sample",
            "load_slo_config", "sample_registry", "sample_snapshot",
        ),
        "repro.obs.spans": (
            "SPAN_SCHEMA_VERSION", "SPAN_STREAM_KIND", "Span",
            "read_span_stream", "read_span_stream_tolerant",
            "write_span_stream",
        ),
        "repro.obs.stitch": (
            "MIGRATION_SPAN_NAME", "MigrationEvent", "SessionTimeline",
            "ShardSegment", "UserSlotSample", "format_timeline",
            "stitch_spans",
        ),
        "repro.obs.tracer": (
            "AnyTracer", "NullTracer", "SlotSpanBuilder", "Tracer",
            "stage_latency_table",
        ),
    },
)

__all__ = [
    "AnyFlightRecorder",
    "AnyTracer",
    "BUILD_INFO_METRIC",
    "BucketHistogram",
    "COORDINATOR_SHARD",
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "DEFAULT_SAMPLE_EVERY",
    "ExpositionSummary",
    "FlightDump",
    "FlightRecorder",
    "Gauge",
    "MERGE_CONFLICTS_METRIC",
    "MIGRATION_SPAN_NAME",
    "MetricFamily",
    "MetricsRegistry",
    "MigrationEvent",
    "NullFlightRecorder",
    "NullTracer",
    "Obs",
    "ObsConfig",
    "ObsHttpServer",
    "PROMETHEUS_CONTENT_TYPE",
    "SHARD_LABEL",
    "SLO_BREACHES_METRIC",
    "SLO_BURN_METRIC",
    "SLO_KINDS",
    "SPAN_SCHEMA_VERSION",
    "SPAN_STREAM_KIND",
    "SessionTimeline",
    "ShardSegment",
    "SloConfig",
    "SloEngine",
    "SloObjective",
    "SloSample",
    "SloStatus",
    "SlotSpanBuilder",
    "Span",
    "TRIGGER_ADMISSION_REJECT",
    "TRIGGER_DEADLINE_MISS",
    "TRIGGER_MIGRATION_STALL",
    "TRIGGER_SHARD_KILL",
    "TRIGGER_SHARD_RESPAWN",
    "TRIGGER_SLO_BREACH",
    "TRIGGER_WRITE_DROP",
    "TRIGGERS",
    "Tracer",
    "UserSlotSample",
    "config_fingerprint",
    "default_slo_config",
    "evaluate_sample",
    "format_timeline",
    "load_slo_config",
    "merge_conflicts",
    "merge_registries",
    "read_span_stream",
    "read_span_stream_tolerant",
    "register_build_info",
    "sample_registry",
    "sample_snapshot",
    "stage_latency_table",
    "stitch_spans",
    "validate_exposition",
    "write_span_stream",
]
