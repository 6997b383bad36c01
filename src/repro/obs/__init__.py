"""Structured observability: events, metrics, and span tracing.

The matching pipeline (``repro.core``), the message-level runtime
(``repro.distributed``), the dynamic re-matcher (``repro.dynamic``) and
the experiment harness (``repro.analysis``) all accept an optional
:class:`Recorder`.  A recorder bundles three orthogonal backends:

* **events** -- append-only stream of JSON-safe dicts: every algorithm
  round, simulator slot and market lifecycle transition, written to JSONL
  with a self-describing run manifest (:mod:`repro.obs.events`,
  :mod:`repro.obs.manifest`).
* **metrics** -- counters, gauges, timers and histograms in a named
  registry (:mod:`repro.obs.metrics`).
* **spans** -- nested wall/CPU timings of pipeline regions
  (:mod:`repro.obs.spans`).
* **runs** -- a live in-process run registry fed by the event stream
  (:mod:`repro.obs.live`), served over HTTP by the telemetry server
  (:mod:`repro.obs.server`) together with ``/metrics`` scrapes, watched
  from a terminal with ``repro watch`` (:mod:`repro.obs.watch`), and
  guarded by declarative SLO rules (:mod:`repro.obs.slo`).

Everything defaults to the *null* backend: with no recorder installed the
instrumented hot paths take one branch and allocate nothing, and results
are identical to the uninstrumented code.  Typical use::

    from repro.obs import JsonlEventSink, MetricsRegistry, Recorder
    from repro.obs import SpanTracer, build_manifest, use_recorder

    recorder = Recorder(
        events=JsonlEventSink("run.jsonl", manifest=build_manifest(seed=0)),
        metrics=MetricsRegistry(),
        spans=SpanTracer(),
    )
    with recorder, use_recorder(recorder):
        run_two_stage(market)          # rounds stream into run.jsonl

Event and metric naming conventions are documented in
``docs/architecture.md`` (Observability section).
"""

from repro.obs.events import (
    EventSink,
    JsonlEventSink,
    ListEventSink,
    NullEventSink,
    event_to_round,
    round_to_event,
)
from repro.obs.live import NULL_RUN_REGISTRY, NullRunRegistry, RunRegistry
from repro.obs.manifest import MANIFEST_SCHEMA_VERSION, build_manifest
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullMetrics,
    Timer,
    snapshot_quantile,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    Recorder,
    get_recorder,
    resolve_recorder,
    use_recorder,
)
from repro.obs.server import TelemetryServer, parse_serve_address
from repro.obs.slo import SloEngine, SloRule, SloViolation, parse_slo_rule
from repro.obs.spans import NullSpanTracer, SpanRecord, SpanTracer, span_table
from repro.obs.summary import format_metrics_summary, format_span_table

__all__ = [
    "EventSink",
    "JsonlEventSink",
    "ListEventSink",
    "NullEventSink",
    "event_to_round",
    "round_to_event",
    "MANIFEST_SCHEMA_VERSION",
    "build_manifest",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullMetrics",
    "Timer",
    "snapshot_quantile",
    "NULL_RECORDER",
    "Recorder",
    "get_recorder",
    "resolve_recorder",
    "use_recorder",
    "NullSpanTracer",
    "SpanRecord",
    "SpanTracer",
    "span_table",
    "format_metrics_summary",
    "format_span_table",
    "RunRegistry",
    "NullRunRegistry",
    "NULL_RUN_REGISTRY",
    "TelemetryServer",
    "parse_serve_address",
    "SloEngine",
    "SloRule",
    "SloViolation",
    "parse_slo_rule",
]
