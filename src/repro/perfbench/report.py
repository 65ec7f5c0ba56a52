"""Benchmark result schema, JSON emission and A/B comparison.

A suite document looks like::

    {
      "suite": "kernel",
      "quick": false,
      "python": "3.11.7",
      "platform": "Linux-...",
      "benchmarks": [
        {"name": "timeout_storm", "wall_s": 0.41, "events": 600012,
         "events_per_sec": 1463443.0, "peak_rss_kb": 48564, ...},
        ...
      ]
    }

``peak_rss_kb`` is ``ru_maxrss`` and therefore monotonic over the
process lifetime: it tells you the high-water mark *by the end of* that
benchmark, not the benchmark's own allocation — read it left to right.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

__all__ = [
    "BenchResult",
    "measure",
    "suite_document",
    "write_suite",
    "compare_suites",
    "render_comparison",
    "worst_events_ratio",
]


@dataclass
class BenchResult:
    """One benchmark's measurement (best of ``repeats`` runs)."""

    name: str
    wall_s: float
    events: int = 0
    repeats: int = 1
    peak_rss_kb: int = 0
    extras: Dict[str, object] = field(default_factory=dict)

    @property
    def events_per_sec(self) -> float:
        if self.wall_s <= 0 or self.events <= 0:
            return 0.0
        return self.events / self.wall_s

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["events_per_sec"] = round(self.events_per_sec, 1)
        doc["wall_s"] = round(self.wall_s, 6)
        extras = doc.pop("extras")
        for key in sorted(extras):
            doc[key] = extras[key]
        return doc


def peak_rss_kb() -> int:
    """Process high-water RSS in KiB (Linux ``ru_maxrss`` unit)."""
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)


def measure(name: str, fn: Callable[[], int], repeats: int = 3,
            **extras) -> BenchResult:
    """Run ``fn`` ``repeats`` times; keep the best wall clock.

    ``fn`` returns the number of kernel events it processed (0 when the
    notion does not apply). The best-of-N policy reports the least
    noise-inflated run, which is the standard for microbenchmarks.
    """
    best_wall = float("inf")
    events = 0
    for _ in range(max(1, repeats)):
        began = time.perf_counter()
        events = fn()
        wall = time.perf_counter() - began
        best_wall = min(best_wall, wall)
    return BenchResult(name=name, wall_s=best_wall, events=events,
                       repeats=max(1, repeats), peak_rss_kb=peak_rss_kb(),
                       extras=dict(extras))


def suite_document(suite: str, results: List[BenchResult],
                   quick: bool) -> dict:
    return {
        "suite": suite,
        "quick": quick,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "benchmarks": [result.to_json() for result in results],
    }


def write_suite(path: str, document: dict) -> None:
    with open(path, "w") as handle:
        json.dump(document, handle, indent=2, sort_keys=False)
        handle.write("\n")


def _index(document: dict) -> Dict[str, dict]:
    return {bench["name"]: bench for bench in document.get("benchmarks", ())}


def compare_suites(baseline: dict, current: dict) -> List[dict]:
    """Per-benchmark speedups of ``current`` over ``baseline``.

    Returns rows with ``wall_speedup`` (baseline wall / current wall,
    higher is better) and, where both sides report events,
    ``events_per_sec_ratio``.
    """
    rows = []
    base = _index(baseline)
    for name, bench in _index(current).items():
        old = base.get(name)
        if old is None:
            continue
        row = {"name": name,
               "baseline_wall_s": old["wall_s"],
               "current_wall_s": bench["wall_s"]}
        if bench["wall_s"] > 0:
            row["wall_speedup"] = old["wall_s"] / bench["wall_s"]
        if old.get("events_per_sec") and bench.get("events_per_sec"):
            row["events_per_sec_ratio"] = (
                bench["events_per_sec"] / old["events_per_sec"])
        if old.get("peak_rss_kb") and bench.get("peak_rss_kb"):
            row["peak_rss_delta_kb"] = (
                bench["peak_rss_kb"] - old["peak_rss_kb"])
        rows.append(row)
    return rows


def worst_events_ratio(rows: List[dict]) -> Optional[float]:
    """The smallest throughput ratio across compared benchmarks.

    Prefers ``events_per_sec_ratio`` (what ``--fail-below`` gates on);
    benchmarks without an events metric fall back to ``wall_speedup``.
    Returns ``None`` when nothing comparable overlapped.
    """
    ratios = [row.get("events_per_sec_ratio") or row.get("wall_speedup")
              for row in rows]
    ratios = [ratio for ratio in ratios if ratio]
    return min(ratios) if ratios else None


def render_comparison(rows: List[dict]) -> str:
    if not rows:
        return "no overlapping benchmarks to compare"
    lines = [f"{'benchmark':<24} {'base wall':>10} {'now wall':>10} "
             f"{'speedup':>8} {'ev/s ratio':>10} {'rss delta':>10}"]
    for row in rows:
        delta = row.get("peak_rss_delta_kb")
        rss = f"{delta:>+9,}K" if delta is not None else " " * 10
        lines.append(
            f"{row['name']:<24} {row['baseline_wall_s']:>10.4f} "
            f"{row['current_wall_s']:>10.4f} "
            f"{row.get('wall_speedup', 0.0):>7.2f}x "
            f"{row.get('events_per_sec_ratio', 0.0):>9.2f}x {rss}")
    return "\n".join(lines)


def load_suite(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


def main_compare(baseline_path: str, current_path: str,
                 out: Optional[Callable[[str], None]] = None) -> List[dict]:
    rows = compare_suites(load_suite(baseline_path),
                          load_suite(current_path))
    (out or sys.stdout.write)(render_comparison(rows) + "\n")
    return rows
