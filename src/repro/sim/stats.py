"""Measurement helpers the models keep for every run: counters and busy trackers.

Every architecture model exposes byte counts and per-resource time
breakdowns through these helpers; :class:`~repro.arch.RunResult` and the
invariant auditors read them. Everything else about a run (latency
distributions, sampled series, spans) is recorded by
:mod:`repro.telemetry` when a hub is installed.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["Counter", "BusyTracker"]


class Counter:
    """A plain additive counter (bytes moved, requests issued, ...)."""

    def __init__(self, name: str = ""):
        self.name = name
        self.value = 0.0

    def add(self, amount: float = 1.0) -> None:
        self.value += amount

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class BusyTracker:
    """Accumulate named time buckets (compute/idle/io/...) for breakdowns.

    Components call :meth:`charge` with a bucket name and a duration; the
    experiment drivers read :attr:`buckets` to build breakdown figures like
    the paper's Figure 3.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self.buckets: Dict[str, float] = {}

    def charge(self, bucket: str, duration: float) -> None:
        if duration < 0:
            raise ValueError(f"negative duration for bucket {bucket!r}: {duration}")
        self.buckets[bucket] = self.buckets.get(bucket, 0.0) + duration

    def total(self) -> float:
        return sum(self.buckets.values())

    def fractions(self) -> Dict[str, float]:
        """Each bucket as a fraction of the tracker's total."""
        total = self.total()
        if total <= 0:
            return {k: 0.0 for k in self.buckets}
        return {k: v / total for k, v in self.buckets.items()}
