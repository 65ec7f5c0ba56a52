"""The commodity-cluster machine: one PC + one disk per node.

Resources per node: a 300 MHz Pentium II :class:`~repro.host.Cpu`, a
private Seagate drive on an Ultra2 SCSI bus (80 MB/s), a 133 MB/s PCI bus
shared by the SCSI adaptor and the 100BaseT NIC, and measured Linux OS
costs. Nodes are connected by the two-level switched-Ethernet fat-tree of
:class:`~repro.net.FatTree`; the front-end is an additional host behind
its own 100 Mb/s access link — the link whose congestion limits group-by
in the paper's Figure 1.

Data paths
----------
* **scan**: media -> SCSI -> PCI -> memory -> CPU; submit/completion OS
  costs charged per request on the node CPU.
* **shuffle**: sender PCI -> NIC -> fat-tree -> receiver PCI, gated by
  the receiver's 16 posted asynchronous receives.
* **front-end delivery**: fat-tree -> front-end access link -> front-end
  CPU.
"""

from __future__ import annotations

from typing import Any, Dict, Generator

from ..disk import DiskDrive
from ..host import Cpu, scaled_os_params
from ..interconnect import SerialBus
from ..net import FatTree, Network
from ..sim import Event, Server, Simulator
from ..tracegen.costs import CLUSTER_COPY_NS
from .base import Machine, WorkLatch
from .config import ClusterConfig
from .program import Phase

__all__ = ["ClusterNode", "ClusterMachine"]

#: User-space messaging library CPU overhead per send/receive, seconds
#: at the node's own clock (BSPlib-style pinned-buffer library).
MESSAGE_OVERHEAD = 25e-6


class ClusterNode:
    """One PC: CPU, private disk behind SCSI, PCI shared with the NIC."""

    def __init__(self, sim: Simulator, config: ClusterConfig, index: int):
        self.index = index
        self.cpu = Cpu(sim, config.node_cpu_mhz, name=f"node{index}")
        self.drive = DiskDrive(sim, config.drive_for(index),
                               name=f"cdisk{index}",
                               fault_id=f"disk.{index}")
        self.scsi = SerialBus(sim, config.scsi_rate, startup=10e-6,
                              name=f"scsi{index}")
        self.pci = SerialBus(sim, config.pci_rate, startup=1e-6,
                             name=f"pci{index}")
        self.os_params = scaled_os_params(config.node_cpu_mhz)
        self.recv_credits = Server(sim, capacity=config.async_receives,
                                   name=f"recv{index}")
        self.read_cursors: Dict = {}
        half = self.drive.geometry.total_sectors // 2
        self.write_cursor = half
        self._write_base = half

    def next_read_lbn(self, key, sectors: int, stream: int,
                      stream_stride: int) -> int:
        cursor_key = (key, stream)
        if cursor_key not in self.read_cursors:
            self.read_cursors[cursor_key] = stream * stream_stride
        lbn = self.read_cursors[cursor_key]
        self.read_cursors[cursor_key] = lbn + sectors
        return lbn % max(1, self._write_base - sectors)

    def next_write_lbn(self, sectors: int) -> int:
        lbn = self.write_cursor
        self.write_cursor += sectors
        if self.write_cursor + sectors >= self.drive.geometry.total_sectors:
            self.write_cursor = self._write_base
        return lbn


class ClusterMachine(Machine):
    """Executes task programs on the commodity-cluster architecture."""

    arch = "cluster"

    def __init__(self, sim: Simulator, config: ClusterConfig):
        super().__init__(sim, config)
        self.config: ClusterConfig = config
        self.nodes = [ClusterNode(sim, config, i)
                      for i in range(config.num_nodes)]
        # Host index num_nodes is the front-end, on its own access link.
        self.tree = FatTree(sim, config.num_nodes + 1, config.ethernet)
        self.network = Network(self.tree)
        self.frontend_cpu = Cpu(sim, config.frontend_cpu_mhz, name="fe-cpu")
        self.frontend_host = config.num_nodes
        self.frontend_bytes = 0
        tel = sim.telemetry
        if tel.enabled:
            tel.add_probe(
                "node.cpu.utilization.mean",
                lambda: sum(n.cpu.utilization() for n in self.nodes)
                / len(self.nodes))
            tel.add_probe("frontend.cpu.utilization",
                          self.frontend_cpu.utilization)
            tel.add_probe(
                "net.frontend.link.utilization",
                self.tree.port(self.frontend_host).rx.utilization)
            tel.add_probe(
                "disk.queue.depth.mean",
                lambda: sum(len(n.drive.queue) for n in self.nodes)
                / len(self.nodes))

    # -- hooks -----------------------------------------------------------------
    @property
    def worker_count(self) -> int:
        return self.config.num_nodes

    def worker_cpu(self, w: int) -> Cpu:
        return self.nodes[w].cpu

    def _frontend_bytes_observed(self):
        return self.frontend_bytes

    def read_block(self, phase: Phase, w: int, nbytes: int,
                   stream: int) -> Generator[Event, Any, None]:
        node = self.nodes[w]
        sectors = (nbytes + 511) // 512
        share = self.worker_share(phase, w)
        stride = (share // max(1, phase.read_streams) + 511) // 512
        lbn = node.next_read_lbn(phase.name, sectors, stream, stride)
        yield from node.cpu.compute_raw(
            node.os_params.io_submit_cost(), bucket=f"{phase.name}:os")
        yield node.drive.read(lbn, nbytes)
        yield from node.scsi.transfer(nbytes)
        yield from node.pci.transfer(nbytes)
        yield from node.cpu.compute(
            CLUSTER_COPY_NS * 1e-9 * nbytes, bucket=f"{phase.name}:copy")
        yield from node.cpu.compute_raw(
            node.os_params.io_complete_cost(), bucket=f"{phase.name}:os")

    def write_block(self, phase: Phase, w: int,
                    nbytes: int) -> Generator[Event, Any, None]:
        node = self.nodes[w]
        sectors = (nbytes + 511) // 512
        lbn = node.next_write_lbn(sectors)
        yield from node.cpu.compute_raw(
            node.os_params.io_submit_cost(), bucket=f"{phase.name}:os")
        yield from node.cpu.compute(
            CLUSTER_COPY_NS * 1e-9 * nbytes, bucket=f"{phase.name}:copy")
        yield from node.pci.transfer(nbytes)
        yield from node.scsi.transfer(nbytes)
        yield node.drive.write(lbn, nbytes)
        yield from node.cpu.compute_raw(
            node.os_params.io_complete_cost(), bucket=f"{phase.name}:os")

    def send_shuffle(self, phase: Phase, w: int, dst: int, nbytes: int,
                     latch: WorkLatch) -> None:
        latch.begin()
        if dst == w:
            self.sim.process(self._deliver_local(phase, w, nbytes, latch),
                             name="cl-local")
        else:
            self.sim.process(self._deliver_peer(phase, w, dst, nbytes, latch),
                             name="cl-shuffle")

    def send_frontend(self, phase: Phase, w: int, nbytes: int,
                      latch: WorkLatch) -> None:
        latch.begin()
        self.sim.process(self._deliver_frontend(phase, w, nbytes, latch),
                         name="cl-fe")

    # -- delivery processes -------------------------------------------------------
    def _deliver_local(self, phase: Phase, w: int, nbytes: int,
                       latch: WorkLatch):
        try:
            yield from self.recv_work(phase, w, nbytes)
        finally:
            latch.done()

    def _deliver_peer(self, phase: Phase, src: int, dst: int, nbytes: int,
                      latch: WorkLatch):
        sender = self.nodes[src]
        receiver = self.nodes[dst]
        try:
            yield from sender.cpu.compute_raw(
                MESSAGE_OVERHEAD, bucket=f"{phase.name}:msg")
            yield from sender.cpu.compute(
                CLUSTER_COPY_NS * 1e-9 * nbytes, bucket=f"{phase.name}:copy")
            yield from sender.pci.transfer(nbytes)
            yield receiver.recv_credits.request()
            try:
                yield from self.network.transfer(src, dst, nbytes)
                yield from receiver.pci.transfer(nbytes)
                yield from receiver.cpu.compute_raw(
                    MESSAGE_OVERHEAD, bucket=f"{phase.name}:msg")
                yield from receiver.cpu.compute(
                    CLUSTER_COPY_NS * 1e-9 * nbytes,
                    bucket=f"{phase.name}:copy")
                yield from self.recv_work(phase, dst, nbytes)
            finally:
                receiver.recv_credits.release()
        finally:
            latch.done()

    def _deliver_frontend(self, phase: Phase, w: int, nbytes: int,
                          latch: WorkLatch):
        sender = self.nodes[w]
        try:
            yield from sender.cpu.compute_raw(
                MESSAGE_OVERHEAD, bucket=f"{phase.name}:msg")
            yield from sender.pci.transfer(nbytes)
            yield from self.network.transfer(w, self.frontend_host, nbytes)
            if phase.frontend_cpu_ns_per_byte > 0:
                yield from self.frontend_cpu.compute(
                    phase.frontend_cpu_ns_per_byte * 1e-9 * nbytes,
                    bucket=f"{phase.name}:frontend")
            self.frontend_bytes += nbytes
        finally:
            latch.done()

    def phase_barrier(self):
        """MPI-style tree barrier: 2*ceil(log2 N) small-message hops."""
        from math import ceil, log2
        params = self.config.ethernet
        hops = 2 * max(1, ceil(log2(max(2, self.config.num_nodes))))
        per_hop = (64 / params.host_link_rate + params.switch_latency
                   + 2 * MESSAGE_OVERHEAD)
        yield self.sim.pause(hops * per_hop)

    # -- reporting ------------------------------------------------------------------
    def collect_extras(self) -> Dict[str, float]:
        fe_port = self.tree.port(self.frontend_host)
        return {
            "net_bytes": self.network.bytes.value,
            "net_messages": self.network.messages.value,
            "frontend_bytes": float(self.frontend_bytes),
            "frontend_rx_utilization": fe_port.rx.utilization(),
            "disk_bytes_read": float(
                sum(n.drive.bytes_read for n in self.nodes)),
            "disk_bytes_written": float(
                sum(n.drive.bytes_written for n in self.nodes)),
        }
