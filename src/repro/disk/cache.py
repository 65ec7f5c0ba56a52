"""Segmented drive cache with sequential read-ahead detection.

Drives of the Cheetah 9LP generation carry a buffer divided into a small
number of *segments*, each tracking one sequential stream. The performance
effects that matter at the granularity this simulator works at are:

* a request that **continues** a stream tracked by a segment needs no seek
  and no rotational wait — the drive's read-ahead has the heads already
  positioned (and typically the data already buffered);
* a request **fully contained** in data a segment has already read is a
  buffer hit and needs no media access at all;
* a drive can sustain only as many concurrent sequential streams as it has
  segments; a 9th interleaved stream on an 8-segment drive degrades to
  random positioning on every request.

The third point is what makes, e.g., a wide external-merge read pattern
behave differently from a single scan — and is why the cache is modelled
explicitly instead of folding "sequential = fast" into the drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

__all__ = ["CacheOutcome", "Segment", "SegmentedCache"]


@dataclass(frozen=True)
class CacheOutcome:
    """Result of a cache lookup for one request.

    ``buffer_hit`` — data served entirely from the buffer (no media work).
    ``streaming`` — request continues a tracked stream (no positioning,
    media transfer only).  When both are False the request pays full
    positioning.

    Only three outcomes exist, so :meth:`SegmentedCache.lookup` returns
    shared frozen instances instead of allocating one per request.
    """

    buffer_hit: bool
    streaming: bool


_BUFFER_HIT = CacheOutcome(buffer_hit=True, streaming=False)
_STREAMING = CacheOutcome(buffer_hit=False, streaming=True)
_MISS = CacheOutcome(buffer_hit=False, streaming=False)


@dataclass(slots=True)
class Segment:
    """One tracked stream: a window of buffered LBNs plus its append point."""

    start_lbn: int       # oldest buffered block still resident
    next_lbn: int        # where the stream continues
    is_write: bool
    last_touch: int      # LRU stamp


class SegmentedCache:
    """Fixed number of LRU-managed segments over a shared buffer.

    Parameters
    ----------
    segments:
        Number of concurrently tracked streams.
    segment_sectors:
        Buffer window per segment, in sectors (buffer size / segments).
    """

    def __init__(self, segments: int, segment_sectors: int):
        if segments < 1:
            raise ValueError(f"need at least one segment, got {segments}")
        if segment_sectors < 1:
            raise ValueError(
                f"segment_sectors must be positive, got {segment_sectors}")
        self.capacity = segments
        self.segment_sectors = segment_sectors
        self.segments: List[Segment] = []
        self._clock = 0
        self.hits = 0
        self.streaming_hits = 0
        self.misses = 0

    def _touch(self, segment: Segment) -> None:
        self._clock += 1
        segment.last_touch = self._clock

    def lookup(self, op: str, start: int, end: int) -> CacheOutcome:
        """Classify a request and update the stream table.

        ``start``/``end`` are sector LBNs, end exclusive. ``op`` is
        ``"read"`` or ``"write"``.
        """
        if end <= start:
            raise ValueError(f"empty request [{start}, {end})")
        is_write = op == "write"

        for segment in self.segments:
            if segment.is_write != is_write:
                continue
            if not is_write and (segment.start_lbn <= start
                                 and end <= segment.next_lbn):
                self.hits += 1
                self._touch(segment)
                return _BUFFER_HIT
            if segment.next_lbn == start:
                self.streaming_hits += 1
                self._extend(segment, end)
                return _STREAMING

        self.misses += 1
        self._install(start, end, is_write)
        return _MISS

    def _extend(self, segment: Segment, end: int) -> None:
        segment.next_lbn = end
        segment.start_lbn = max(segment.start_lbn,
                                end - self.segment_sectors)
        self._touch(segment)

    def _install(self, start: int, end: int, is_write: bool) -> None:
        segment = Segment(
            start_lbn=max(start, end - self.segment_sectors),
            next_lbn=end,
            is_write=is_write,
            last_touch=0,
        )
        if len(self.segments) >= self.capacity:
            victim = min(self.segments, key=lambda s: s.last_touch)
            self.segments.remove(victim)
        self.segments.append(segment)
        self._touch(segment)

    def invalidate(self) -> None:
        """Drop all tracked streams (e.g. after a format or mode change)."""
        self.segments.clear()

    @property
    def total_lookups(self) -> int:
        return self.hits + self.streaming_hits + self.misses
