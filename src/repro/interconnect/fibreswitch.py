"""FibreSwitch: the paper's recommended interconnect beyond 64 disks.

The conclusions of the paper state that to scale past 64 disks "a more
aggressive interconnect (e.g., multiple fibre channel loops connected by
a FibreSwitch) would be needed". This module implements exactly that
topology:

* devices are divided into *segments*, each segment a private arbitrated
  loop (100 MB/s, FCP protocol cost per exchange);
* the segment loops hang off a non-blocking crossbar switch;
* a transfer between devices on the same segment occupies only that
  loop; a transfer across segments occupies the source loop, a switch
  port pair (cut-through latency), and the destination loop.

Aggregate bisection therefore grows with the number of segments — the
property the single dual-loop FC-AL lacks — while each individual device
still sees a plain FC loop.
"""

from __future__ import annotations

from typing import Any, Generator, List

from ..sim import Counter, Event, Simulator
from .bus import FC_STARTUP_LATENCY, SerialBus

__all__ = ["FibreSwitch"]

MB = 1_000_000


class FibreSwitch:
    """Multiple FC loops behind a non-blocking crossbar.

    Parameters
    ----------
    devices:
        Total number of attached devices (disks + front-end adaptors).
    segments:
        Number of loops. Devices are assigned round-robin
        (device ``i`` lives on loop ``i % segments``).
    loop_rate:
        Wire rate of each loop, bytes/s (100 MB/s FC).
    switch_latency:
        Cut-through latency of the crossbar per crossing.
    """

    def __init__(self, sim: Simulator, devices: int, segments: int = 4,
                 loop_rate: float = 100 * MB,
                 switch_latency: float = 5e-6,
                 name: str = "fsw"):
        if devices < 1:
            raise ValueError(f"need at least one device, got {devices}")
        if segments < 1:
            raise ValueError(f"need at least one segment, got {segments}")
        self.sim = sim
        self.devices = devices
        self.segments = segments
        self.switch_latency = switch_latency
        self.name = name
        self.loops: List[SerialBus] = [
            SerialBus(sim, loop_rate, startup=FC_STARTUP_LATENCY,
                      name=f"{name}.loop{i}")
            for i in range(segments)
        ]
        self.crossings = Counter(f"{name}.crossings")
        # Loops self-register as `bus.<name>.loop<i>`; this port covers
        # the crossbar itself (a loop_outage here stalls crossings only).
        self.faults = None
        if sim.faults.enabled:
            self.faults = sim.faults.register(f"bus.{name}")

    def segment_of(self, device: int) -> int:
        """Loop index a device is attached to."""
        if not 0 <= device < self.devices:
            raise ValueError(
                f"device {device} out of range [0, {self.devices})")
        return device % self.segments

    @property
    def aggregate_rate(self) -> float:
        """Total wire bandwidth across all loops."""
        return sum(loop.rate for loop in self.loops)

    def transfer(self, src: int, dst: int,
                 nbytes: int) -> Generator[Event, Any, None]:
        """Move ``nbytes`` from device ``src`` to device ``dst``."""
        began = self.sim.now
        tel = self.sim.telemetry
        src_loop = self.loops[self.segment_of(src)]
        dst_loop = self.loops[self.segment_of(dst)]
        if src_loop is dst_loop:
            yield from src_loop.transfer(nbytes)
        else:
            yield from src_loop.transfer(nbytes)
            if self.faults is not None and self.faults.active:
                yield from self.faults.wait_out(
                    self.sim, kinds=("loop_outage",),
                    counter="faults.bus.outage_waits")
            self.crossings.add()
            if tel.enabled:
                tel.spans.instant(
                    "bus", "crossing", f"bus.{self.name}",
                    args={"src": src, "dst": dst, "nbytes": nbytes})
                tel.registry.counter(f"bus.{self.name}.crossings").add()
            if self.switch_latency > 0:
                yield self.sim.pause(self.switch_latency)
            yield from dst_loop.transfer(nbytes)
        if tel.enabled:
            tel.spans.complete(
                "bus", f"route {src}->{dst}", f"bus.{self.name}",
                began, self.sim.now - began, args={"nbytes": nbytes})

    def bytes_moved(self) -> float:
        return sum(loop.bytes_moved.value for loop in self.loops)

    def utilization(self) -> float:
        return sum(loop.utilization() for loop in self.loops) / self.segments
