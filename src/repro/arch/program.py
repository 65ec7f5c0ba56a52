"""Architecture-neutral task programs: phases of block-granular dataflow.

Every decision-support task, on every architecture, boils down to one or
more *phases* in which each worker (disk / node / processor):

1. reads its share of a dataset sequentially in fixed-size requests,
2. spends CPU on every byte (one or more labelled cost components),
3. routes output bytes — to peer workers (a repartitioning shuffle), to
   the front-end, back to local storage, or nowhere (consumed),
4. performs receiver-side CPU work and writes for bytes that arrive from
   peers,
5. synchronizes at a barrier before the next phase.

A :class:`Phase` captures exactly that, with costs expressed at the trace
machine's clock rate (:data:`~repro.host.cpu.REFERENCE_MHZ`). The three
machine models execute the same :class:`TaskProgram` against their own
resources, which is what makes the cross-architecture comparison an
apples-to-apples one — mirroring how the paper implemented each task
three times against a common trace format.

Labelled cost components exist so execution-time breakdowns (the paper's
Figure 3) fall out of the accounting: e.g. sort's first phase charges
``partitioner`` at the reading worker and ``append`` + ``sort`` at the
shuffle receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["CostComponent", "Phase", "TaskProgram"]


@dataclass(frozen=True)
class CostComponent:
    """One labelled CPU cost: nanoseconds per byte at the reference clock."""

    label: str
    ns_per_byte: float

    def __post_init__(self) -> None:
        if self.ns_per_byte < 0:
            raise ValueError(
                f"{self.label}: negative cost {self.ns_per_byte}")


@dataclass(frozen=True)
class Phase:
    """One barrier-delimited stage of a task.

    Attributes
    ----------
    read_bytes_total:
        Bytes read in this phase, summed over all workers (each worker
        reads an equal share of it from its local/striped storage).
    cpu:
        Labelled per-byte costs charged at the reading worker.
    shuffle_fraction:
        Fraction of read bytes repartitioned across all workers. With W
        workers, (W-1)/W of it crosses the interconnect; 1/W stays local
        (but still pays receiver-side costs).
    recv:
        Labelled per-byte costs charged at the worker a shuffled byte
        lands on.
    recv_write_fraction:
        Fraction of shuffled bytes written to storage at the receiver
        (run files, partition files).
    shuffle_fixed_per_worker:
        Extra bytes each worker repartitions once, at end of input
        (candidate-count exchanges and other fixed-size collectives).
    frontend_fraction / frontend_fixed_per_worker:
        Bytes delivered to the front-end: proportional to input, plus a
        fixed per-worker tail (partial aggregates, counter tables).
    frontend_cpu_ns_per_byte:
        Cost charged at the front-end per delivered byte.
    write_fraction:
        Fraction of read bytes written back locally by the reader.
    read_streams:
        Interleaved sequential streams the reader's request pattern forms
        (1 for a scan; the run count for an external-merge phase). Drives
        lose sequential streaming once this exceeds their cache segments.
    split_disk_groups:
        On the SMP, read from one half of the disk farm and write to the
        other (the NOW-sort trick the paper applies to sort and join).
    scratch_bytes:
        Per-worker scratch memory the phase's algorithm needs; the
        Active Disk machine checks it against the DiskOS memory layout.
    """

    name: str
    read_bytes_total: int
    cpu: Tuple[CostComponent, ...] = ()
    shuffle_fraction: float = 0.0
    shuffle_fixed_per_worker: int = 0
    #: Zipf exponent of the shuffle's destination distribution. 0 means
    #: the uniform spread of the paper's datasets; > 0 concentrates
    #: repartitioned bytes on low-numbered workers (hot partitions).
    shuffle_skew: float = 0.0
    recv: Tuple[CostComponent, ...] = ()
    recv_write_fraction: float = 0.0
    frontend_fraction: float = 0.0
    frontend_fixed_per_worker: int = 0
    frontend_cpu_ns_per_byte: float = 0.0
    write_fraction: float = 0.0
    read_streams: int = 1
    split_disk_groups: bool = False
    scratch_bytes: int = 0

    def __post_init__(self) -> None:
        if self.read_bytes_total < 0:
            raise ValueError(f"{self.name}: negative read volume")
        for frac, label in ((self.shuffle_fraction, "shuffle_fraction"),
                            (self.recv_write_fraction, "recv_write_fraction"),
                            (self.frontend_fraction, "frontend_fraction"),
                            (self.write_fraction, "write_fraction"),
                            (self.shuffle_skew, "shuffle_skew")):
            if frac < 0:
                raise ValueError(f"{self.name}: negative {label}")
        if self.read_streams < 1:
            raise ValueError(f"{self.name}: read_streams must be >= 1")

    @property
    def cpu_total_ns_per_byte(self) -> float:
        return sum(c.ns_per_byte for c in self.cpu)

    @property
    def recv_total_ns_per_byte(self) -> float:
        return sum(c.ns_per_byte for c in self.recv)


@dataclass(frozen=True)
class TaskProgram:
    """A named sequence of phases implementing one task on one machine."""

    task: str
    phases: Tuple[Phase, ...]

    def __post_init__(self) -> None:
        if not self.phases:
            raise ValueError(f"{self.task}: a program needs at least one phase")

    def total_read_bytes(self) -> int:
        return sum(p.read_bytes_total for p in self.phases)

    def total_shuffle_bytes(self) -> int:
        return sum(int(p.read_bytes_total * p.shuffle_fraction)
                   for p in self.phases)
