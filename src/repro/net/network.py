"""Message transport over the fat-tree: per-link serialization + hop latency.

A message from host *s* to host *d* crosses, in order:

1. the sender's access link (serialized at 100 Mb/s),
2. for hosts behind different leaves: a leaf uplink and the destination
   leaf's downlink (each a GbE :class:`~repro.interconnect.BusGroup`),
3. the receiver's access link.

Each link is held for its own serialization time (message-level
store-and-forward, like the paper's Netsim); per-switch cut-through
latency is added per hop. Under load — the regime the experiments care
about — this yields exactly the right per-link utilizations and endpoint
congestion behaviour (e.g., the group-by front-end bottleneck in
Figure 1).
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from ..faults.policies import RetryPolicy
from ..sim import Counter, Event
from .topology import FatTree

__all__ = ["Network"]

#: Backoff for TCP-style retransmits after a lost message.
NET_RETRY = RetryPolicy(max_attempts=6, base_delay=200e-6, factor=2.0,
                        max_delay=20e-3)


class Network:
    """Point-to-point transport over a :class:`FatTree`.

    ``mtu``: when ``None`` (default — and what the paper-replication
    experiments use, matching Netsim's message-level model), a message
    occupies each link on its path for its full serialization time in
    sequence. When set, messages fragment into MTU-sized frames that
    pipeline across the path, which recovers full wire rate for single
    blocking streams at the cost of more simulation events. Aggregate
    throughputs under load are identical either way.
    """

    def __init__(self, tree: FatTree, mtu: Optional[int] = None):
        if mtu is not None and mtu < 512:
            raise ValueError(f"mtu must be >= 512 bytes, got {mtu}")
        self.tree = tree
        self.sim = tree.sim
        self.mtu = mtu
        self.messages = Counter("net.messages")
        self.bytes = Counter("net.bytes")
        self.in_flight = 0
        tel = self.sim.telemetry
        if tel.enabled:
            tel.registry.bind("net.messages.in_flight",
                              lambda: float(self.in_flight))
        # Fabric-wide port ("net": packet loss / link flap for everyone)
        # plus one per host NIC ("net.host<i>"), registered eagerly so
        # the plan can be armed before the run starts.
        self.faults = None
        self._host_faults = []
        if self.sim.faults.enabled:
            self.faults = self.sim.faults.register("net")
            self._host_faults = [
                self.sim.faults.register(f"net.host{i}")
                for i in range(tree.num_hosts)
            ]

    def _endpoint_faults(self, src: int, dst: int):
        """Fault ports a message from src to dst is exposed to."""
        return (self.faults, self._host_faults[src], self._host_faults[dst])

    def _fault_delays(self, src: int, dst: int):
        """Hold the message while any involved link is flapping."""
        for port in self._endpoint_faults(src, dst):
            if port.active:
                yield from port.wait_out(self.sim, kinds=("link_flap",),
                                         counter="faults.net.flap_waits")

    def _retransmits(self, src: int, dst: int, nbytes: int):
        """TCP-style bounded retransmits while packet loss is active."""
        survive = 1.0
        for port in self._endpoint_faults(src, dst):
            if port.active:
                survive *= 1.0 - port.probability("packet_loss")
        loss = 1.0 - survive
        if loss <= 0:
            return
        rng = self.faults.rng
        # A lost message costs a backoff plus re-sending one transfer
        # unit (the whole message, or one frame in MTU mode).
        unit = nbytes if self.mtu is None else min(nbytes, self.mtu)
        for attempt in range(NET_RETRY.max_attempts):
            if rng.random() >= loss:
                return
            self.faults.note("faults.net.lost_messages")
            self.faults.note("faults.net.retransmits")
            yield self.sim.timeout(NET_RETRY.delay(attempt))
            yield from self._path_hop(src, dst, unit)
        self.faults.note("faults.net.retry_exhausted")

    def _path_hop(self, src: int, dst: int, nbytes: int):
        """One store-and-forward traversal of the path for one unit."""
        tree = self.tree
        sport = tree.port(src)
        dport = tree.port(dst)
        yield from sport.tx.transfer(nbytes)
        hops = tree.hop_count(src, dst)
        latency = hops * tree.params.switch_latency
        if latency > 0:
            yield self.sim.pause(latency)
        if sport.leaf != dport.leaf:
            yield from tree.leaves[sport.leaf].up.transfer(nbytes)
            yield from tree.leaves[dport.leaf].down.transfer(nbytes)
        yield from dport.rx.transfer(nbytes)

    def transfer(self, src: int, dst: int,
                 nbytes: int) -> Generator[Event, Any, None]:
        """Deliver ``nbytes`` from ``src`` to ``dst`` (blocking generator).

        Local delivery (``src == dst``) is free: the data never leaves the
        host's memory.
        """
        if nbytes < 0:
            raise ValueError(f"negative message size: {nbytes}")
        began = self.sim.now
        self.in_flight += 1
        try:
            if src != dst and nbytes > 0:
                if self.faults is not None:
                    yield from self._fault_delays(src, dst)
                if self.mtu is None or nbytes <= self.mtu:
                    yield from self._path_hop(src, dst, nbytes)
                else:
                    frames = []
                    remaining = nbytes
                    while remaining > 0:
                        frame = min(self.mtu, remaining)
                        remaining -= frame
                        frames.append(self.sim.process(
                            self._path_hop(src, dst, frame), name="frame"))
                    yield self.sim.all_of(frames)
                if self.faults is not None:
                    yield from self._retransmits(src, dst, nbytes)
        finally:
            self.in_flight -= 1
        self.messages.add()
        self.bytes.add(nbytes)
        tel = self.sim.telemetry
        if tel.enabled and src != dst and nbytes > 0:
            latency = self.sim.now - began
            tel.spans.complete(
                "net", f"msg {src}->{dst}", f"net.host{src}.tx",
                began, latency, args={"nbytes": nbytes})
            tel.registry.counter("net.bytes").add(nbytes)
            tel.registry.histogram("net.latency").observe(latency)
