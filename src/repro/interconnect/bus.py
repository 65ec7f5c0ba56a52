"""Queue-based serial I/O interconnect model.

Howsim models I/O interconnects with "a simple queue-based model that has
parameters for startup latency, transfer speed and the capacity of the
interconnect" (paper, Section 2.3). :class:`SerialBus` is exactly that: a
FIFO-arbitrated medium that carries one transfer at a time (capacity 1 for
an arbitrated loop), each costing ``startup + nbytes / rate``.

:class:`BusGroup` aggregates several buses (the dual Fibre Channel
arbitrated loop of the paper is two 100 MB/s loops = 200 MB/s aggregate)
and routes each transfer to the least-loaded member loop.
"""

from __future__ import annotations

from typing import Any, Generator, List

from ..faults.policies import RetryPolicy
from ..sim import Counter, Event, Server, Simulator

__all__ = ["SerialBus", "BusGroup", "dual_fc_al"]

#: Backoff for FCP-style retries after a transient bus error.
BUS_RETRY = RetryPolicy(max_attempts=4, base_delay=50e-6, factor=2.0,
                        max_delay=1e-3)

MB = 1_000_000

#: FC-AL arbitration + SCSI command/status protocol cost per transfer,
#: seconds. Dominated by the command and status phases of the FCP
#: exchange; 64 KB striping chunks pay it ~40 % of their wire time while
#: 256 KB transfers amortize it to ~10 %.
FC_STARTUP_LATENCY = 250e-6


class SerialBus:
    """One serial medium: FIFO arbitration, fixed rate, per-transfer startup.

    Parameters
    ----------
    rate:
        Transfer bandwidth in bytes/s.
    startup:
        Fixed arbitration/setup latency per transfer, seconds.
    capacity:
        Number of concurrent transfers the medium admits (1 for an
        arbitrated loop; >1 models a switched fabric coarsely).
    """

    def __init__(self, sim: Simulator, rate: float, startup: float = 0.0,
                 capacity: int = 1, name: str = "bus"):
        if rate <= 0:
            raise ValueError(f"bus rate must be positive, got {rate}")
        if startup < 0:
            raise ValueError(f"negative startup latency: {startup}")
        self.sim = sim
        self.rate = rate
        self.startup = startup
        self.name = name
        self.server = Server(sim, capacity=capacity, name=name)
        self.bytes_moved = Counter(f"{name}.bytes")
        self.faults = None
        if sim.faults.enabled:
            self.faults = sim.faults.register(f"bus.{name}")
        self._audit = None
        if sim.invariants.enabled:
            self._audit = sim.invariants.bus_auditor(
                f"bus.{name}", moved=lambda: self.bytes_moved.value)

    def occupancy(self) -> int:
        """Transfers in service plus waiting."""
        return self.server.in_use + self.server.queue_length

    def utilization(self) -> float:
        return self.server.utilization()

    def hold_time(self, nbytes: int) -> float:
        """Bus occupancy for a transfer of ``nbytes``."""
        if nbytes < 0:
            raise ValueError(f"negative transfer size: {nbytes}")
        return self.startup + nbytes / self.rate

    def transfer(self, nbytes: int) -> Generator[Event, Any, None]:
        """Move ``nbytes`` across the bus (blocking generator).

        With a fault plan armed, a ``loop_outage`` window blocks the
        sender until the segment comes back, and ``bus_transient``
        errors are recovered in place: each hit costs an FCP-style
        backoff plus a full re-transfer (see :data:`BUS_RETRY`).
        """
        began = self.sim.now
        fp = self.faults
        if fp is not None and fp.active:
            yield from fp.wait_out(self.sim, kinds=("loop_outage",),
                                   counter="faults.bus.outage_waits")
        audit = self._audit
        if audit is not None:
            audit.begin(nbytes)
        tel = self.sim.telemetry
        if tel.enabled:
            yield from self._traced_transfer(tel, nbytes, began)
        else:
            yield from self.server.serve(self.hold_time(nbytes))
        if fp is not None and fp.active:
            yield from self._transient_retries(fp, nbytes)
        self.bytes_moved.add(nbytes)
        if audit is not None:
            audit.end(nbytes)

    def _transient_retries(self, fp, nbytes: int):
        """Re-arbitrate and re-send while transient errors hit the wire."""
        probability = fp.probability("bus_transient")
        if probability <= 0:
            return
        for attempt in range(BUS_RETRY.max_attempts):
            if fp.rng.random() >= probability:
                return
            fp.note("faults.bus.transients")
            fp.note("faults.bus.retries")
            yield self.sim.timeout(BUS_RETRY.delay(attempt))
            yield from self.server.serve(self.hold_time(nbytes))
        # Persistent corruption: stop modelling individual retries and
        # let the (already charged) transfers stand as the recovery cost.
        fp.note("faults.bus.retry_exhausted")

    def _traced_transfer(self, tel, nbytes: int,
                         began: float) -> Generator[Event, Any, None]:
        """serve() split into arbitration + occupancy spans for the trace."""
        track = f"bus.{self.name}"
        queue = tel.registry.series(f"bus.{self.name}.queue")
        queue.set(float(self.occupancy() + 1))
        yield self.server.request()
        granted = self.sim.now
        if granted > began:
            tel.spans.complete("bus", "arb", f"{track}.wait", began,
                               granted - began)
        try:
            yield self.sim.pause(self.hold_time(nbytes))
        finally:
            self.server.release()
            queue.set(float(self.occupancy()))
        tel.spans.complete("bus", "xfer", track, granted,
                           self.sim.now - granted, args={"nbytes": nbytes})


class BusGroup:
    """Several parallel buses treated as one aggregate interconnect.

    Each transfer is routed to the member with the fewest queued
    transfers (ties broken by index), which is how dual-loop FC host
    adaptors balance traffic.
    """

    def __init__(self, buses: List[SerialBus], name: str = "busgroup"):
        if not buses:
            raise ValueError("BusGroup needs at least one bus")
        self.buses = buses
        self.name = name

    @property
    def sim(self) -> Simulator:
        return self.buses[0].sim

    @property
    def aggregate_rate(self) -> float:
        return sum(bus.rate for bus in self.buses)

    def pick(self) -> SerialBus:
        """Least-occupied member bus.

        The dominant configuration is the paper's dual loop; picking
        between two members directly keeps min()'s first-minimal
        semantics (names share a prefix and order by index, so the
        name tie-break equals "first wins") without building a key
        tuple per member per transfer.
        """
        buses = self.buses
        if len(buses) == 2:
            first, second = buses
            return first if first.occupancy() <= second.occupancy() else second
        return min(buses, key=lambda b: (b.occupancy(), b.name))

    def transfer(self, nbytes: int) -> Generator[Event, Any, None]:
        """Move ``nbytes`` over the least-loaded member."""
        bus = self.pick()
        yield from bus.transfer(nbytes)

    def bytes_moved(self) -> float:
        return sum(bus.bytes_moved.value for bus in self.buses)

    def utilization(self) -> float:
        return sum(b.utilization() for b in self.buses) / len(self.buses)


def dual_fc_al(sim: Simulator, aggregate_rate: float = 200 * MB,
               loops: int = 2, name: str = "fc") -> BusGroup:
    """The paper's dual Fibre Channel arbitrated loop (2 x 100 MB/s).

    ``aggregate_rate`` lets experiments scale the interconnect (Figure 2
    uses 400 MB/s); the per-loop rate is the aggregate divided evenly.
    """
    if loops < 1:
        raise ValueError(f"need at least one loop, got {loops}")
    per_loop = aggregate_rate / loops
    buses = [
        SerialBus(sim, rate=per_loop, startup=FC_STARTUP_LATENCY,
                  capacity=1, name=f"{name}.loop{i}")
        for i in range(loops)
    ]
    return BusGroup(buses, name=name)
