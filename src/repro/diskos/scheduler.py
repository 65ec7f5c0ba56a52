"""Disklet scheduling: time-slicing the embedded CPU among disklets.

DiskOS "provides support for scheduling disklets as well as for managing
memory, I/O and stream communication" (paper Section 2.3). The paper's
experiments run one query at a time, but the runtime itself multiplexes:
several resident disklets share the one embedded processor.

:class:`DiskletScheduler` implements round-robin quantum scheduling on
top of a :class:`~repro.host.Cpu`: each disklet's work is diced into
quanta that queue FIFO behind the CPU, so concurrent disklets interleave
at quantum granularity and make proportional progress. A fixed dispatch
cost is charged per quantum — the price of multiplexing a processor with
no spare registers.

Used by the mixed-workload experiments (`Machine.run_concurrent`) as the
conceptual model; exposed directly for DiskOS-level studies.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ..host import Cpu
from ..sim import Event, Simulator

__all__ = ["DiskletScheduler"]

#: Disklet dispatch cost per quantum, seconds at the disk CPU's own
#: clock (sandbox entry/exit + stream-buffer pointer swap).
DISPATCH_COST = 20e-6


class DiskletScheduler:
    """Round-robin quantum scheduler over one embedded CPU."""

    def __init__(self, sim: Simulator, cpu: Cpu, quantum: float = 5e-3,
                 dispatch_cost: float = DISPATCH_COST):
        if quantum <= 0:
            raise ValueError(f"quantum must be positive, got {quantum}")
        if dispatch_cost < 0:
            raise ValueError(f"negative dispatch cost: {dispatch_cost}")
        self.sim = sim
        self.cpu = cpu
        self.quantum = quantum
        self.dispatch_cost = dispatch_cost
        self.resident: Dict[str, float] = {}   # name -> CPU seconds used
        self.dispatches = 0

    def register(self, name: str) -> None:
        """Make a disklet resident (idempotent)."""
        self.resident.setdefault(name, 0.0)

    def run(self, name: str,
            reference_seconds: float) -> Generator[Event, Any, None]:
        """Charge ``reference_seconds`` of disklet work, quantum-sliced.

        Blocks until the work completes; concurrent callers interleave
        at quantum granularity through the CPU's FIFO queue.
        """
        if reference_seconds < 0:
            raise ValueError(f"negative work: {reference_seconds}")
        self.register(name)
        tel = self.sim.telemetry
        began = self.sim.now
        quanta = 0
        remaining = self.cpu.scaled(reference_seconds)
        while remaining > 0:
            slice_seconds = min(self.quantum, remaining)
            if self.dispatch_cost > 0:
                yield from self.cpu.compute_raw(
                    self.dispatch_cost, bucket="dispatch")
            yield from self.cpu.compute_raw(
                slice_seconds, bucket=f"disklet:{name}")
            self.resident[name] += slice_seconds
            self.dispatches += 1
            quanta += 1
            remaining -= slice_seconds
        if tel.enabled and quanta:
            tel.spans.complete(
                "diskos", f"disklet:{name}", f"diskos.{self.cpu.name}",
                began, self.sim.now - began, args={"quanta": quanta})
            tel.registry.counter(
                f"diskos.{self.cpu.name}.dispatches").add(quanta)

    def usage(self, name: str) -> float:
        """CPU seconds a disklet has consumed so far."""
        return self.resident.get(name, 0.0)

    def overhead_fraction(self) -> float:
        """Dispatch overhead as a fraction of all scheduled CPU time."""
        work = sum(self.resident.values())
        overhead = self.dispatches * self.dispatch_cost
        total = work + overhead
        return overhead / total if total > 0 else 0.0
