"""Disklets: the unit of application code downloaded into an Active Disk.

A disklet is declared, not programmed: following the stream-based model of
the ASPLOS'98 Active Disks paper, a disklet is a node in a coarse-grain
dataflow graph whose behaviour — for simulation purposes — is fully
captured by its per-byte processing cost and the routing/volume of its
output streams. DiskOS enforces the sandbox by construction: the only
resources a disklet touches are the ones declared here.

Costs are expressed at :data:`~repro.host.cpu.REFERENCE_MHZ` (the trace
machine); the Active Disk's embedded CPU stretches them by its clock
ratio.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .streams import SinkKind, StreamSpec

__all__ = ["Disklet"]


@dataclass(frozen=True)
class Disklet:
    """Declaration of one disklet.

    Attributes
    ----------
    cpu_ns_per_byte:
        Processing cost per input-stream byte, in nanoseconds on the
        reference machine.
    outputs:
        The output streams, each bound to a fixed sink.
    recv_cpu_ns_per_byte:
        Cost per byte arriving from peer disks (e.g. the sorter's append
        and run-formation work).
    recv_write_fraction:
        Fraction of received bytes written to the local media (run files,
        partition files).
    scratch_bytes:
        Scratch space requested at initialization. DiskOS refuses to run
        a disklet whose scratch does not fit the memory layout.
    """

    name: str
    cpu_ns_per_byte: float = 0.0
    outputs: Tuple[StreamSpec, ...] = ()
    recv_cpu_ns_per_byte: float = 0.0
    recv_write_fraction: float = 0.0
    scratch_bytes: int = 0

    def __post_init__(self) -> None:
        if self.cpu_ns_per_byte < 0 or self.recv_cpu_ns_per_byte < 0:
            raise ValueError(f"{self.name}: negative CPU cost")
        if not 0.0 <= self.recv_write_fraction <= 1.0 + 1e-9:
            raise ValueError(
                f"{self.name}: recv_write_fraction out of [0, 1]: "
                f"{self.recv_write_fraction}")
        if self.scratch_bytes < 0:
            raise ValueError(f"{self.name}: negative scratch request")

    @property
    def uses_peers(self) -> bool:
        """True when any output stream targets peer disks."""
        return any(spec.sink is SinkKind.PEER for spec in self.outputs)

    def output_to(self, sink: SinkKind) -> float:
        """Total output fraction routed to ``sink``."""
        return sum(spec.fraction for spec in self.outputs
                   if spec.sink is sink)

    def fixed_to(self, sink: SinkKind) -> int:
        """Total fixed (end-of-stream) bytes routed to ``sink``."""
        return sum(spec.fixed_bytes for spec in self.outputs
                   if spec.sink is sink)
