"""Exporters: Chrome trace-event JSON, flat metrics JSON, text summary.

The Chrome trace output follows the Trace Event Format (the
``traceEvents`` array form) and loads directly in Perfetto
(https://ui.perfetto.dev) or ``chrome://tracing``:

* every span track becomes a named thread (``M``/``thread_name``
  metadata + ``X`` complete events, timestamps in microseconds);
* instant events become ``i`` events scoped to their thread;
* counter samples become ``C`` events, which Perfetto renders as
  stacked area charts (queue depth over time, utilization over time).

The metrics JSON is the registry snapshot plus span-derived busy totals;
the text summary is a human-readable utilization table for terminals,
and :func:`sparkline` draws a sampled series as one line of text.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List

__all__ = ["chrome_trace", "metrics_json", "utilization_summary",
           "sparkline", "write_chrome_trace", "write_metrics_json",
           "write_artifacts"]

#: Synthetic process ids grouping tracks by top-level component, so
#: Perfetto clusters disk rows together, bus rows together, etc.
_PID_ORDER = ("phase", "host", "disk", "bus", "net")

_BARS = " .:-=+*#%@"


def _pid_for(cat: str) -> int:
    try:
        return _PID_ORDER.index(cat)
    except ValueError:
        return len(_PID_ORDER)


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def chrome_trace(telemetry, flush_open: bool = True) -> Dict[str, Any]:
    """Render a telemetry hub as a Chrome trace-event document."""
    spans = telemetry.spans
    if flush_open:
        spans.flush_open()
    events: List[Dict[str, Any]] = []

    # Stable track -> (pid, tid) assignment, grouped by category.
    track_ids: Dict[str, tuple] = {}
    track_cat: Dict[str, str] = {}
    for span in spans.spans:
        track_cat.setdefault(span.track, span.cat)
    for inst in spans.instants:
        track_cat.setdefault(inst.track, inst.cat)
    next_tid: Dict[int, int] = {}
    for track in sorted(track_cat):
        pid = _pid_for(track_cat[track])
        tid = next_tid.get(pid, 0)
        next_tid[pid] = tid + 1
        track_ids[track] = (pid, tid)
        events.append({
            "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
            "args": {"name": track},
        })

    for span in spans.spans:
        pid, tid = track_ids[span.track]
        event: Dict[str, Any] = {
            "name": span.name, "cat": span.cat, "ph": "X",
            "pid": pid, "tid": tid,
            "ts": _us(span.ts), "dur": _us(span.dur),
        }
        if span.args:
            event["args"] = span.args
        events.append(event)

    for inst in spans.instants:
        pid, tid = track_ids[inst.track]
        event = {
            "name": inst.name, "cat": inst.cat, "ph": "i", "s": "t",
            "pid": pid, "tid": tid, "ts": _us(inst.ts),
        }
        if inst.args:
            event["args"] = inst.args
        events.append(event)

    for sample in spans.counters:
        events.append({
            "name": sample.name, "ph": "C", "pid": 0, "tid": 0,
            "ts": _us(sample.ts), "args": sample.values,
        })

    doc: Dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.telemetry",
            "dropped_events": spans.dropped,
        },
    }
    if telemetry.meta:
        doc["otherData"].update(
            {k: str(v) for k, v in telemetry.meta.items()})
    return doc


def metrics_json(telemetry) -> Dict[str, Any]:
    """Registry snapshot + span busy totals as one JSON-able document."""
    horizon = (telemetry.run_ended_at
               if telemetry.run_ended_at else telemetry.now())
    busy = telemetry.spans.busy_by_track()
    return {
        "meta": dict(telemetry.meta),
        "elapsed": horizon,
        "metrics": telemetry.registry.snapshot(),
        "tracks": {
            track: {
                "busy": seconds,
                "utilization": (seconds / horizon) if horizon > 0 else 0.0,
            }
            for track, seconds in sorted(busy.items())
        },
        "span_counts": {
            "spans": len(telemetry.spans.spans),
            "instants": len(telemetry.spans.instants),
            "counter_samples": len(telemetry.spans.counters),
            "dropped": telemetry.spans.dropped,
        },
    }


def utilization_summary(telemetry, top: int = 30) -> str:
    """Terminal-friendly per-track utilization table."""
    doc = metrics_json(telemetry)
    horizon = doc["elapsed"]
    lines = [f"telemetry summary — {horizon:.3f} simulated seconds, "
             f"{doc['span_counts']['spans']} spans, "
             f"{doc['span_counts']['instants']} instants"]
    if doc["span_counts"]["dropped"]:
        lines.append(f"  WARNING: {doc['span_counts']['dropped']} events "
                     f"dropped (raise max_events)")
    rows = sorted(doc["tracks"].items(),
                  key=lambda kv: -kv[1]["utilization"])
    if rows:
        width = max(len(track) for track, _ in rows[:top])
        lines.append(f"  {'track'.ljust(width)}  busy(s)    util")
        for track, fields in rows[:top]:
            bar = "#" * int(round(20 * min(1.0, fields["utilization"])))
            lines.append(f"  {track.ljust(width)}  {fields['busy']:8.3f}  "
                         f"{fields['utilization']:6.1%}  {bar}")
        if len(rows) > top:
            lines.append(f"  ... {len(rows) - top} more tracks")
    else:
        lines.append("  (no spans recorded)")
    probes = [(name, entry) for name, entry in doc["metrics"].items()
              if entry["kind"] == "series"]
    if probes:
        lines.append("  sampled probes (time-weighted averages):")
        for name, entry in probes:
            lines.append(f"    {name}: avg {entry['average']:.3f} "
                         f"peak {entry['peak']:.3f}")
    hists = [(name, entry) for name, entry in doc["metrics"].items()
             if entry["kind"] == "histogram" and entry["count"]]
    if hists:
        lines.append("  latency distributions (exact streaming quantiles):")
        for name, entry in hists:
            lines.append(
                f"    {name}: n={entry['count']:.0f} "
                f"p50 {entry['p50']:.6f} p95 {entry['p95']:.6f} "
                f"p99 {entry['p99']:.6f} max {entry['max']:.6f}")
    return "\n".join(lines)


def sparkline(values: List[float], width: int = 60) -> str:
    """Render values as a fixed-width ASCII intensity strip."""
    if not values:
        return ""
    # Resample to width buckets (mean per bucket).
    buckets: List[float] = []
    for i in range(min(width, len(values))):
        lo = i * len(values) // min(width, len(values))
        hi = max(lo + 1, (i + 1) * len(values) // min(width, len(values)))
        chunk = values[lo:hi]
        buckets.append(sum(chunk) / len(chunk))
    peak = max(buckets)
    if peak <= 0:
        return " " * len(buckets)
    out = []
    for value in buckets:
        level = int(round((len(_BARS) - 1) * value / peak))
        out.append(_BARS[max(0, min(len(_BARS) - 1, level))])
    return "".join(out)


def write_chrome_trace(telemetry, path: str) -> str:
    with open(path, "w") as handle:
        json.dump(chrome_trace(telemetry), handle)
    return path


def write_metrics_json(telemetry, path: str) -> str:
    with open(path, "w") as handle:
        json.dump(metrics_json(telemetry), handle, indent=1)
    return path


def write_artifacts(telemetry, directory: str,
                    prefix: str = "run") -> Dict[str, str]:
    """Write trace + metrics + summary next to a run's reports.

    Returns ``{"trace": path, "metrics": path, "summary": path}``.
    """
    os.makedirs(directory, exist_ok=True)
    paths = {
        "trace": os.path.join(directory, f"{prefix}.trace.json"),
        "metrics": os.path.join(directory, f"{prefix}.metrics.json"),
        "summary": os.path.join(directory, f"{prefix}.summary.txt"),
    }
    write_chrome_trace(telemetry, paths["trace"])
    write_metrics_json(telemetry, paths["metrics"])
    with open(paths["summary"], "w") as handle:
        handle.write(utilization_summary(telemetry) + "\n")
    return paths
