"""Structured span/event recording for simulation timelines.

A :class:`SpanRecorder` collects the raw material of an execution
timeline: *spans* (an activity on a track with a begin time and a
duration — a seek, a bus transfer, a disklet quantum), *instant events*
(a cache hit, a phase barrier) and *counter samples* (queue depth over
time). Tracks are free-form strings like ``disk.adisk3`` or ``fe-cpu``;
the Chrome-trace exporter maps each track to its own timeline row.

Recording explicit ``(ts, dur)`` pairs via :meth:`SpanRecorder.complete`
is the idiomatic pattern inside simulation processes, where the caller
already brackets a ``yield`` with ``sim.now`` readings; the
:meth:`begin`/:meth:`end` pair exists for activities whose end is
decided elsewhere (and tolerates processes that die mid-span — open
spans are flushed at export time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

__all__ = ["Span", "InstantEvent", "CounterSample", "OpenSpan",
           "SpanRecorder"]


@dataclass(frozen=True)
class Span:
    """One completed activity on a track."""

    cat: str
    name: str
    track: str
    ts: float                  # begin time, simulated seconds
    dur: float                 # duration, simulated seconds
    args: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker on a track."""

    cat: str
    name: str
    track: str
    ts: float
    args: Optional[Dict[str, Any]] = None


@dataclass(frozen=True)
class CounterSample:
    """One sample of a named set of numeric series (queue depth, ...)."""

    name: str
    ts: float
    values: Dict[str, float]


@dataclass
class OpenSpan:
    """Handle returned by :meth:`SpanRecorder.begin`; pass to ``end``."""

    cat: str
    name: str
    track: str
    ts: float
    args: Optional[Dict[str, Any]] = None
    closed: bool = False


class SpanRecorder:
    """Bounded recorder of spans, instants and counter samples.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current simulated time.
    max_events:
        Total event budget across spans + instants + counter samples.
        Once exhausted, further events are counted in :attr:`dropped`
        instead of stored (the trace stays loadable; the summary
        reports the loss).
    """

    def __init__(self, clock: Callable[[], float],
                 max_events: int = 1_000_000):
        if max_events < 1:
            raise ValueError(f"max_events must be >= 1, got {max_events}")
        self._clock = clock
        self.max_events = max_events
        self.spans: List[Span] = []
        self.instants: List[InstantEvent] = []
        self.counters: List[CounterSample] = []
        self._open: List[OpenSpan] = []
        self.dropped = 0

    def __len__(self) -> int:
        return len(self.spans) + len(self.instants) + len(self.counters)

    @property
    def _full(self) -> bool:
        return len(self) >= self.max_events

    # -- recording --------------------------------------------------------
    def complete(self, cat: str, name: str, track: str, ts: float,
                 dur: float, args: Optional[Dict[str, Any]] = None) -> None:
        """Record a finished span with explicit begin time and duration."""
        if dur < 0:
            raise ValueError(f"negative span duration: {dur}")
        if self._full:
            self.dropped += 1
            return
        self.spans.append(Span(cat, name, track, ts, dur, args))

    def begin(self, cat: str, name: str, track: str,
              args: Optional[Dict[str, Any]] = None) -> OpenSpan:
        """Open a span at the current time; close it with :meth:`end`."""
        span = OpenSpan(cat, name, track, self._clock(), args)
        self._open.append(span)
        return span

    def end(self, span: OpenSpan) -> None:
        """Close an open span at the current time (idempotent)."""
        if span.closed:
            return
        span.closed = True
        try:
            self._open.remove(span)
        except ValueError:
            pass
        self.complete(span.cat, span.name, span.track, span.ts,
                      self._clock() - span.ts, span.args)

    def instant(self, cat: str, name: str, track: str,
                args: Optional[Dict[str, Any]] = None,
                ts: Optional[float] = None) -> None:
        """Record a zero-duration marker (cache hit, barrier, ...)."""
        if self._full:
            self.dropped += 1
            return
        when = self._clock() if ts is None else ts
        self.instants.append(InstantEvent(cat, name, track, when, args))

    def counter(self, name: str, values: Dict[str, float],
                ts: Optional[float] = None) -> None:
        """Record one sample of a named counter series."""
        if self._full:
            self.dropped += 1
            return
        when = self._clock() if ts is None else ts
        self.counters.append(CounterSample(name, when, dict(values)))

    # -- queries ----------------------------------------------------------
    def open_spans(self) -> Tuple[OpenSpan, ...]:
        """Spans begun but not yet ended (processes still mid-activity)."""
        return tuple(self._open)

    def flush_open(self, now: Optional[float] = None) -> int:
        """Close every open span at ``now`` (export-time cleanup).

        Returns the number of spans closed. Processes that were
        interrupted or terminated mid-span leave their spans open; this
        turns them into finite spans ending at the flush time so the
        exported trace stays well-formed.
        """
        when = self._clock() if now is None else now
        flushed = 0
        for span in list(self._open):
            span.closed = True
            self.complete(span.cat, span.name, span.track, span.ts,
                          max(0.0, when - span.ts), span.args)
            flushed += 1
        self._open.clear()
        return flushed

    def tracks(self) -> List[str]:
        """All track names seen, in first-appearance order."""
        seen: Dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.track, None)
        for inst in self.instants:
            seen.setdefault(inst.track, None)
        return list(seen)

    def busy_by_track(self) -> Dict[str, float]:
        """Summed span durations per track (the utilization numerator)."""
        busy: Dict[str, float] = {}
        for span in self.spans:
            busy[span.track] = busy.get(span.track, 0.0) + span.dur
        return busy

    def window(self, start: float, end: float) -> List[Span]:
        """Spans overlapping ``[start, end)``."""
        if end < start:
            raise ValueError(f"bad window [{start}, {end})")
        return [s for s in self.spans
                if s.ts < end and s.ts + s.dur >= start]
