"""repro.obs — structured run telemetry.

Four layers, all zero-overhead when disabled:

- :mod:`repro.obs.tracer` — nestable named spans with hierarchical
  wall-clock aggregation (``Tracer(flat=True)`` for flat stage timing).
- :mod:`repro.obs.metrics` — counters, gauges, and streaming histograms
  (p50/p95/max, EWMA) for loss, grad-norm, clip events, tape nodes, and
  samples/sec.
- :mod:`repro.obs.sinks` — pluggable event consumers: in-memory ring
  buffer, JSONL writer with run manifest, console renderer, null sink.
- :mod:`repro.obs.runlog` — the :class:`RunLogger` handle the training
  stack emits into, plus the :class:`AnomalyMonitor` that flags
  non-finite losses/gradients and exploding grad norms.

Typical use::

    from repro.obs import run_logger
    from repro.training import run_experiment

    logger = run_logger(jsonl_path="run.jsonl")
    run_experiment("etth1", "conformer", pred_len=12, logger=logger)
    # then: python -m repro.cli obs report run.jsonl
"""

from repro.obs.metrics import Counter, Gauge, MetricRegistry, StreamingHistogram
from repro.obs.report import RunRecord, load_jsonl, load_run, render_report, report_dict
from repro.obs.trace import chrome_trace, render_flamegraph, write_chrome_trace
from repro.obs.runlog import (
    NULL_LOGGER,
    AnomalyMonitor,
    RunLogger,
    build_manifest,
    git_revision,
    run_logger,
)
from repro.obs.sinks import ConsoleSink, JSONLSink, MemorySink, NullSink, Sink
from repro.obs.tracer import SpanRecord, Tracer

__all__ = [
    "AnomalyMonitor",
    "ConsoleSink",
    "Counter",
    "Gauge",
    "JSONLSink",
    "MemorySink",
    "MetricRegistry",
    "NULL_LOGGER",
    "NullSink",
    "RunLogger",
    "RunRecord",
    "Sink",
    "SpanRecord",
    "StreamingHistogram",
    "Tracer",
    "build_manifest",
    "chrome_trace",
    "git_revision",
    "load_jsonl",
    "load_run",
    "render_flamegraph",
    "render_report",
    "report_dict",
    "run_logger",
    "write_chrome_trace",
]
