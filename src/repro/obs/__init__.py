"""Observability: telemetry pipeline, tracing, convergence, profiling.

The measurement substrate every experiment, benchmark and (future)
runtime plugs into — all off (and near-free) by default:

* :mod:`repro.obs.registry` — labeled counters/gauges/histograms with a
  shared no-op fast path (:data:`NULL_REGISTRY`), streaming log-binned
  histograms (O(1) memory, ``quantile(q)``), and an associative,
  order-independent :func:`merge_snapshots` that makes sharded runs
  report bit-identical merged metrics.
* :mod:`repro.obs.timeseries` — :class:`TimeSeries` ring buffers and the
  cadence-driven :class:`TimeSeriesRecorder` (with fault-phase
  annotations).
* :mod:`repro.obs.export` — Prometheus-style text exposition and the
  JSONL timeline format behind ``repro run --telemetry-out``.
* :mod:`repro.obs.tracer` — :class:`TraceRecorder`, a protocol observer
  that captures per-query event streams (with simulated timestamps) and
  reconstructs hop trees; head-based seeded ``sample_rate`` keeps it
  usable at paper scale; export as JSONL, render via
  :func:`repro.obs.render.render_hop_tree` or the ``repro trace`` CLI.
* :mod:`repro.obs.dash` — the ``repro dash`` live terminal view
  (sparkline timelines + per-neighbor breaker/RTT health tables).
* :mod:`repro.obs.profile` — phase profilers (populate / bootstrap /
  converge / measure) hooked into the experiment harness and merged
  across parallel sweep workers.

:mod:`repro.obs.telemetry` and :mod:`repro.obs.convergence` sit above
the measurement and simulation layers, so they are imported on demand.
:class:`~repro.obs.telemetry.Telemetry` is the scale-ready pipeline: it
owns a registry, the run's one protocol collector (a
:class:`~repro.metrics.collectors.MetricsCollector` writing the labelled
``query.*`` series into it), an optional sampled tracer, and
sim-time-sampled timelines.
"""

from repro.obs.events import EVENT_KINDS, TraceEvent, event_from_dict
from repro.obs.export import (
    prometheus_text,
    read_timeline_jsonl,
    write_timeline_jsonl,
)
from repro.obs.profile import PhaseProfiler, PhaseStats
from repro.obs.registry import (
    MetricsRegistry,
    NULL_REGISTRY,
    merge_snapshots,
)
from repro.obs.render import render_hop_tree
from repro.obs.timeseries import TimeSeries, TimeSeriesRecorder
from repro.obs.tracer import HopNode, QueryTrace, TraceRecorder, read_jsonl

__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "event_from_dict",
    "prometheus_text",
    "read_timeline_jsonl",
    "write_timeline_jsonl",
    "PhaseProfiler",
    "PhaseStats",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "merge_snapshots",
    "render_hop_tree",
    "TimeSeries",
    "TimeSeriesRecorder",
    "HopNode",
    "QueryTrace",
    "TraceRecorder",
    "read_jsonl",
]
