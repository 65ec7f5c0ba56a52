"""Cluster network topology: two-level switched Ethernet fat-tree.

The paper's cluster uses 24-port 100BaseT switches (3Com SuperStack II
3900) with two Gigabit-Ethernet uplinks each, feeding a Gigabit core
switch (SuperStack II 9300). The 16-host configuration hangs off a single
switch; larger configurations use an array of leaf switches, so the
bisection bandwidth grows with the cluster while each host keeps a fixed
100 Mb/s (12.5 MB/s) access link.

Every directed link is a :class:`~repro.interconnect.SerialBus`; hosts get
separate transmit and receive links (full-duplex 100BaseT), leaf switches
get a pair of GbE uplinks per direction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..interconnect import BusGroup, SerialBus
from ..sim import Simulator

__all__ = ["EthernetParams", "HostPort", "LeafSwitch", "FatTree"]

MB = 1_000_000
Mb = 125_000  # one megabit per second, in bytes/s


@dataclass(frozen=True)
class EthernetParams:
    """Tunable constants of the switched-Ethernet fabric."""

    host_link_rate: float = 100 * Mb          # 100BaseT access link
    uplink_rate: float = 1000 * Mb            # GbE uplink
    uplinks_per_leaf: int = 2
    hosts_per_leaf: int = 16                  # paper: 16 hosts on one switch
    switch_latency: float = 10e-6             # per-hop cut-through latency
    wire_startup: float = 5e-6                # per-message framing cost


@dataclass
class HostPort:
    """A host's full-duplex access port: one tx and one rx link."""

    host: int
    tx: SerialBus
    rx: SerialBus
    leaf: int


@dataclass
class LeafSwitch:
    """One edge switch with GbE uplink groups toward the core."""

    index: int
    hosts: List[int]
    up: BusGroup
    down: BusGroup


class FatTree:
    """The two-level topology: hosts -> leaf switches -> GbE core."""

    def __init__(self, sim: Simulator, num_hosts: int,
                 params: Optional[EthernetParams] = None):
        if num_hosts < 1:
            raise ValueError(f"need at least one host, got {num_hosts}")
        self.sim = sim
        self.params = params or EthernetParams()
        self.num_hosts = num_hosts
        self.ports: List[HostPort] = []
        self.leaves: List[LeafSwitch] = []
        self._build()

    def _build(self) -> None:
        p = self.params
        num_leaves = (self.num_hosts + p.hosts_per_leaf - 1) // p.hosts_per_leaf
        for leaf in range(num_leaves):
            first = leaf * p.hosts_per_leaf
            hosts = list(range(first,
                               min(first + p.hosts_per_leaf, self.num_hosts)))
            up = BusGroup(
                [SerialBus(self.sim, p.uplink_rate, p.wire_startup,
                           name=f"leaf{leaf}.up{i}")
                 for i in range(p.uplinks_per_leaf)],
                name=f"leaf{leaf}.up")
            down = BusGroup(
                [SerialBus(self.sim, p.uplink_rate, p.wire_startup,
                           name=f"leaf{leaf}.down{i}")
                 for i in range(p.uplinks_per_leaf)],
                name=f"leaf{leaf}.down")
            self.leaves.append(LeafSwitch(leaf, hosts, up, down))
            for host in hosts:
                self.ports.append(HostPort(
                    host=host,
                    tx=SerialBus(self.sim, p.host_link_rate, p.wire_startup,
                                 name=f"host{host}.tx"),
                    rx=SerialBus(self.sim, p.host_link_rate, p.wire_startup,
                                 name=f"host{host}.rx"),
                    leaf=leaf,
                ))

    @property
    def single_switch(self) -> bool:
        """True when the whole cluster fits behind one leaf (16 hosts)."""
        return len(self.leaves) == 1

    def port(self, host: int) -> HostPort:
        if not 0 <= host < self.num_hosts:
            raise ValueError(f"host {host} out of range")
        return self.ports[host]

    def same_leaf(self, a: int, b: int) -> bool:
        return self.port(a).leaf == self.port(b).leaf

    def hop_count(self, src: int, dst: int) -> int:
        """Switch hops between two hosts (1 same leaf, 3 across the core)."""
        return 1 if self.same_leaf(src, dst) else 3

    def bytes_moved(self) -> float:
        """Total bytes carried by all host access links (tx side)."""
        return sum(port.tx.bytes_moved.value for port in self.ports)
