"""Simulation observability: structured tracing, metrics, trace export.

The subsystem has three parts:

* :mod:`repro.telemetry.metrics` — a hierarchical
  :class:`MetricRegistry` of counters, gauges, histograms and
  time-weighted series (``disk.3.arm.busy``-style names);
* :mod:`repro.telemetry.spans` — a :class:`SpanRecorder` capturing what
  every resource was doing over time (spans, instants, counter samples);
* :mod:`repro.telemetry.export` — Chrome trace-event JSON (Perfetto /
  ``chrome://tracing``), flat metrics JSON, a text summary and
  sparklines.

:class:`Telemetry` bundles them; :data:`NULL_TELEMETRY` is the no-op
default every probe site sees until a hub is installed, so instrumented
code is zero-cost when observability is off. See docs/OBSERVABILITY.md.
"""

from .hub import NULL_TELEMETRY, NullTelemetry, Telemetry
from .metrics import (
    BoundMetric,
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    Metric,
    MetricRegistry,
    SeriesMetric,
)
from .spans import CounterSample, InstantEvent, OpenSpan, Span, SpanRecorder
from .export import (
    chrome_trace,
    metrics_json,
    sparkline,
    utilization_summary,
    write_artifacts,
    write_chrome_trace,
    write_metrics_json,
)

__all__ = [
    "Telemetry", "NullTelemetry", "NULL_TELEMETRY",
    "MetricRegistry", "Metric", "CounterMetric", "GaugeMetric",
    "HistogramMetric", "SeriesMetric", "BoundMetric",
    "SpanRecorder", "Span", "InstantEvent", "CounterSample", "OpenSpan",
    "chrome_trace", "metrics_json", "utilization_summary", "sparkline",
    "write_chrome_trace", "write_metrics_json", "write_artifacts",
]
