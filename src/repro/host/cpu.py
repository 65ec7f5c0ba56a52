"""Processor model: trace-time scaling over a contended CPU resource.

Howsim "models variation in processor speed by scaling [trace] processing
times" (Section 2.3). All task CPU costs in this repository are expressed
at :data:`REFERENCE_MHZ` — the DEC Alpha 2100 4/275 the original traces
were captured on — and a :class:`Cpu` stretches them by
``reference / actual`` megahertz when work is charged to it.

A :class:`Cpu` is a single-slot FIFO server, so concurrent activities on
one processor serialize, and utilization/busy-bucket accounting comes for
free.
"""

from __future__ import annotations

from typing import Any, Generator

from ..sim import BusyTracker, Event, Server, Simulator

__all__ = ["REFERENCE_MHZ", "Cpu"]

#: Clock rate of the DEC Alpha 2100 4/275 used for trace acquisition.
REFERENCE_MHZ = 275.0


class Cpu:
    """One processor with a clock-rate scale factor and busy accounting."""

    def __init__(self, sim: Simulator, mhz: float, name: str = "cpu"):
        if mhz <= 0:
            raise ValueError(f"CPU speed must be positive, got {mhz}")
        self.sim = sim
        self.mhz = mhz
        self.name = name
        self.server = Server(sim, capacity=1, name=name)
        self.busy = BusyTracker(name)
        # Same division as the old per-call property — the cached float
        # is bit-identical; compute() runs per charged cost component.
        self._scale = REFERENCE_MHZ / mhz
        self._telemetry = sim.telemetry

    @property
    def scale(self) -> float:
        """Multiplier applied to reference-machine processing times."""
        return self._scale

    def scaled(self, reference_seconds: float) -> float:
        """Wall time this CPU needs for ``reference_seconds`` of trace time."""
        return reference_seconds * self._scale

    def compute(self, reference_seconds: float,
                bucket: str = "compute") -> Generator[Event, Any, None]:
        """Charge trace-time work (generator; blocks for queueing + service)."""
        if reference_seconds < 0:
            raise ValueError(f"negative compute time: {reference_seconds}")
        if reference_seconds == 0:
            return
        duration = self.scaled(reference_seconds)
        yield from self.server.serve(duration)
        self.busy.charge(bucket, duration)
        self._record_span(bucket, duration)

    def compute_raw(self, seconds: float,
                    bucket: str = "os") -> Generator[Event, Any, None]:
        """Charge already-scaled wall time (OS costs scale separately)."""
        if seconds < 0:
            raise ValueError(f"negative compute time: {seconds}")
        if seconds == 0:
            return
        yield from self.server.serve(seconds)
        self.busy.charge(bucket, seconds)
        self._record_span(bucket, seconds)

    def _record_span(self, bucket: str, duration: float) -> None:
        """Busy span for the service interval just completed.

        The CPU is a FIFO single-slot server, so the service happened in
        the trailing ``duration`` of the serve — queueing wait shows up
        as the gap before the span, i.e. the timeline's idle/contended
        distinction falls out for free.
        """
        tel = self._telemetry
        if tel.enabled:
            tel.spans.complete("host", bucket, f"cpu.{self.name}",
                               self.sim.now - duration, duration)

    def utilization(self) -> float:
        return self.server.utilization()
