"""The metric registry: hierarchically named counters, gauges, histograms
and time-weighted series.

Every metric lives in one addressable namespace, under a dotted
hierarchical name like ``disk.3.arm.busy`` or ``bus.fc.loop0.queue``, so
exporters and analyses can select whole subtrees (``disk.*``) without
knowing which component created what.

Metric kinds
------------
``counter``   monotone accumulator (bytes moved, requests, cache hits)
``gauge``     last-written value (queue depth *right now*)
``histogram`` distribution of observations (response times)
``series``    piecewise-constant value integrated over time — the
              time-weighted average is the utilization primitive
``bound``     read-through gauge: a zero-argument callable sampled at
              snapshot time (wraps existing accessors like
              ``Server.utilization`` without copying state)
"""

from __future__ import annotations

import random
from bisect import bisect_right
from fnmatch import fnmatchcase
from math import ceil
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple
from zlib import crc32

__all__ = ["Metric", "CounterMetric", "GaugeMetric", "HistogramMetric",
           "SeriesMetric", "BoundMetric", "MetricRegistry",
           "DEFAULT_BOUNDS", "DEFAULT_RESERVOIR"]


class Metric:
    """Base: a named measurement with a ``kind`` and a ``snapshot()``."""

    kind = "metric"

    def __init__(self, name: str):
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name

    def snapshot(self) -> Dict[str, float]:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name}>"


class CounterMetric(Metric):
    """A monotone accumulator."""

    kind = "counter"

    def __init__(self, name: str):
        super().__init__(name)
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"{self.name}: counters only go up ({amount})")
        self.value += amount

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class GaugeMetric(Metric):
    """Last-written value."""

    kind = "gauge"

    def __init__(self, name: str, initial: float = 0.0):
        super().__init__(name)
        self.value = initial

    def set(self, value: float) -> None:
        self.value = value

    def add(self, delta: float) -> None:
        self.value += delta

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


#: Default histogram bucket upper bounds: half-decades from 10 us to 100 s,
#: wide enough for response times and span durations alike.
DEFAULT_BOUNDS: Tuple[float, ...] = (
    1e-5, 3e-5, 1e-4, 3e-4, 1e-3, 3e-3, 1e-2, 3e-2,
    1e-1, 3e-1, 1.0, 3.0, 10.0, 30.0, 100.0,
)


#: Default reservoir capacity: exact order statistics up to this many
#: observations, uniform (Vitter Algorithm R) sampling beyond.
DEFAULT_RESERVOIR = 4096


class HistogramMetric(Metric):
    """Distribution of observations with exact streaming quantiles.

    Bucket counters (fixed ``bounds``) are kept for shape export, but
    quantiles come from a value reservoir: *exact* order statistics
    while ``count <= reservoir`` observations, and a uniform random
    sample (Vitter's Algorithm R) past that. The reservoir's RNG is
    seeded from the metric name, so two same-seed runs produce
    byte-identical p50/p95/p99 regardless of registration order or
    platform. Pass ``reservoir=0`` for the legacy bucket-upper-bound
    approximation only.
    """

    kind = "histogram"

    def __init__(self, name: str,
                 bounds: Sequence[float] = DEFAULT_BOUNDS,
                 reservoir: int = DEFAULT_RESERVOIR):
        super().__init__(name)
        self.bounds = tuple(sorted(bounds))
        if not self.bounds:
            raise ValueError(f"{name}: histogram needs at least one bound")
        if reservoir < 0:
            raise ValueError(f"{name}: reservoir must be >= 0")
        # One bucket per bound plus the overflow bucket.
        self.buckets = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.reservoir = reservoir
        self._samples: List[float] = []
        self._sorted: Optional[List[float]] = None
        # Deterministic per-name seed: replacement decisions are a pure
        # function of (metric name, observation order).
        self._rng = random.Random(crc32(name.encode("utf-8"))) \
            if reservoir else None

    def observe(self, value: float) -> None:
        self.buckets[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if self.reservoir:
            if len(self._samples) < self.reservoir:
                self._samples.append(value)
                self._sorted = None
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.reservoir:
                    self._samples[slot] = value
                    self._sorted = None

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def exact(self) -> bool:
        """True while the reservoir still holds every observation."""
        return bool(self.reservoir) and self.count <= self.reservoir

    def quantile(self, q: float) -> float:
        """Streaming quantile: nearest-rank over the value reservoir.

        Exact while :attr:`exact` holds; an unbiased sample estimate
        beyond. With ``reservoir=0`` falls back to the bucket
        upper-bound approximation.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if self._samples:
            if self._sorted is None:
                self._sorted = sorted(self._samples)
            rank = ceil(q * len(self._sorted)) - 1
            return self._sorted[max(0, min(rank, len(self._sorted) - 1))]
        rank = q * self.count
        running = 0
        for i, n in enumerate(self.buckets):
            running += n
            if running >= rank:
                if i < len(self.bounds):
                    return self.bounds[i]
                return self.max if self.max is not None else self.bounds[-1]
        return self.max if self.max is not None else self.bounds[-1]

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "p50": self.quantile(0.5),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }


class SeriesMetric(Metric):
    """Piecewise-constant value tracked against the simulation clock.

    The time-weighted average over the metric's lifetime ``[t_created,
    now]`` is the standard utilization / mean-queue-length estimator.
    """

    kind = "series"

    def __init__(self, name: str, clock: Callable[[], float],
                 initial: float = 0.0):
        super().__init__(name)
        self._clock = clock
        self._value = initial
        self._area = 0.0
        self._created = clock()
        self._since = self._created
        self.peak = initial

    @property
    def value(self) -> float:
        return self._value

    def set(self, value: float) -> None:
        now = self._clock()
        self._area += self._value * (now - self._since)
        self._since = now
        self._value = value
        if value > self.peak:
            self.peak = value

    def add(self, delta: float) -> None:
        self.set(self._value + delta)

    def average(self) -> float:
        """Time-weighted average over the metric's lifetime."""
        now = self._clock()
        elapsed = now - self._created
        if elapsed <= 0:
            return self._value
        area = self._area + self._value * (now - self._since)
        return area / elapsed

    def snapshot(self) -> Dict[str, float]:
        return {"value": self._value, "average": self.average(),
                "peak": self.peak}


class BoundMetric(Metric):
    """Read-through gauge: samples a callable at snapshot time."""

    kind = "bound"

    def __init__(self, name: str, fn: Callable[[], float]):
        super().__init__(name)
        self._fn = fn

    @property
    def value(self) -> float:
        return float(self._fn())

    def snapshot(self) -> Dict[str, float]:
        return {"value": self.value}


class MetricRegistry:
    """The central, hierarchically addressed metric namespace.

    Factory accessors are get-or-create and idempotent: two probes that
    ask for ``counter("net.bytes")`` share the metric. Asking for an
    existing name with a *different* kind is an error — it would
    silently split one measurement into two.
    """

    def __init__(self, clock: Callable[[], float] = lambda: 0.0):
        self._clock = clock
        self._metrics: Dict[str, Metric] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def _get_or_create(self, name: str, cls, *args, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            metric = cls(name, *args, **kwargs)
            self._metrics[name] = metric
        elif not isinstance(metric, cls):
            raise ValueError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"requested {cls.kind}")
        return metric

    # -- factories --------------------------------------------------------
    def counter(self, name: str) -> CounterMetric:
        return self._get_or_create(name, CounterMetric)

    def gauge(self, name: str, initial: float = 0.0) -> GaugeMetric:
        return self._get_or_create(name, GaugeMetric, initial)

    def histogram(self, name: str,
                  bounds: Sequence[float] = DEFAULT_BOUNDS,
                  reservoir: int = DEFAULT_RESERVOIR
                  ) -> HistogramMetric:
        return self._get_or_create(name, HistogramMetric, bounds, reservoir)

    def series(self, name: str, initial: float = 0.0) -> SeriesMetric:
        return self._get_or_create(name, SeriesMetric, self._clock, initial)

    def bind(self, name: str, fn: Callable[[], float]) -> BoundMetric:
        """Expose an existing accessor (e.g. ``server.utilization``)."""
        return self._get_or_create(name, BoundMetric, fn)

    # -- queries ----------------------------------------------------------
    def get(self, name: str) -> Metric:
        try:
            return self._metrics[name]
        except KeyError:
            raise KeyError(f"no metric named {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def match(self, pattern: str) -> List[Metric]:
        """Metrics whose names match a glob (``disk.*.busy.seek``)."""
        return [self._metrics[name] for name in self.names()
                if fnmatchcase(name, pattern)]

    def snapshot(self) -> Dict[str, Dict[str, Any]]:
        """Flatten every metric to ``{name: {kind, fields...}}``."""
        out: Dict[str, Dict[str, Any]] = {}
        for name in self.names():
            metric = self._metrics[name]
            entry: Dict[str, Any] = {"kind": metric.kind}
            entry.update(metric.snapshot())
            out[name] = entry
        return out

    def as_rows(self) -> List[Tuple[str, float]]:
        """(dotted-name, value) rows: the registry as one flat table."""
        rows: List[Tuple[str, float]] = []
        for name, entry in self.snapshot().items():
            for fieldname, value in entry.items():
                if fieldname == "kind":
                    continue
                key = name if fieldname == "value" else f"{name}.{fieldname}"
                rows.append((key, float(value)))
        return rows
