"""The stream abstraction of the Active Disk programming model.

Disklets are sandboxed: they cannot initiate I/O, cannot allocate memory,
and cannot redirect where their streams come from or go to (paper,
Section 3). A disklet sees only:

* one **input stream** fed by DiskOS from the media (or from peer disks),
* one or more **output streams**, each bound at initialization to a fixed
  sink — the front-end host, a peer disk, the local media, or the bit
  bucket (for data the disklet consumes, e.g. filtered-out tuples).

A :class:`StreamSpec` describes an output as a *fraction* of the input
volume (plus an optional fixed tail emitted at end-of-stream), which is
how the trace generator expresses data reductions like select's 1 %
selectivity or group-by's counter tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

__all__ = ["SinkKind", "StreamSpec", "StreamBufferProbe"]


class SinkKind(Enum):
    """Where an output stream is routed. Fixed at disklet initialization."""

    DISCARD = "discard"      # consumed by the disklet (e.g. filtered out)
    FRONTEND = "frontend"    # to the front-end host over the interconnect
    PEER = "peer"            # to peer disks (requires direct disk-to-disk)
    MEDIA = "media"          # written back to the local platters


@dataclass(frozen=True)
class StreamSpec:
    """One output stream of a disklet.

    Attributes
    ----------
    sink:
        Where the stream's bytes go.
    fraction:
        Bytes emitted per input byte (0.01 for a 1 %-selective filter,
        1.0 for a repartitioning shuffle).
    fixed_bytes:
        Bytes emitted once, at end of input (counter tables, partial
        aggregates).
    spread:
        For PEER sinks: over how many peers the output is spread
        (0 = all other disks, uniformly).
    """

    sink: SinkKind
    fraction: float = 0.0
    fixed_bytes: int = 0
    spread: int = 0

    def __post_init__(self) -> None:
        if self.fraction < 0:
            raise ValueError(f"negative stream fraction: {self.fraction}")
        if self.fixed_bytes < 0:
            raise ValueError(f"negative fixed bytes: {self.fixed_bytes}")
        if self.sink is SinkKind.DISCARD and (self.fraction or self.fixed_bytes):
            raise ValueError("DISCARD streams carry no accounted bytes")

    def bytes_for(self, input_bytes: int, input_total: int,
                  emitted_fixed: bool) -> int:
        """Output bytes owed for ``input_bytes`` of input.

        ``emitted_fixed`` tells whether the fixed tail was already sent;
        the caller emits it once when the input stream ends.
        """
        owed = int(round(self.fraction * input_bytes))
        if not emitted_fixed and input_bytes >= input_total:
            owed += self.fixed_bytes
        return owed


class StreamBufferProbe:
    """Telemetry shim over one DiskOS stream/communication buffer pool.

    DiskOS grants a fixed number of buffers per disk (see
    :class:`~repro.diskos.memory.MemoryLayout`); the machines gate peer
    transfers on them. Wrapping acquire/release in this probe publishes
    the pool's occupancy as a time-weighted ``series`` metric (average =
    mean buffers held, peak = high-water mark), which is how buffer
    starvation shows up in a metrics report. Costs nothing when the
    telemetry hub is the null one.

    With a fault port attached (``faults``), :meth:`stall_wait` lets the
    owning machine model a ``stream_stall`` window — DiskOS withholding
    buffer grants, e.g. while its buffer cache recovers — by blocking
    the requester until the window clears.

    With an armed invariant hub attached (``invariants``), the probe
    registers for periodic occupancy sweeps and :meth:`acquire` raises a
    structured ``occupancy-bounds`` violation the instant the pool is
    over-granted — the buffers are a fixed slice of the DiskOS memory
    layout, so holding more than ``capacity`` means the credit gate
    leaked.
    """

    def __init__(self, telemetry, name: str, capacity: int, faults=None,
                 invariants=None):
        if capacity < 1:
            raise ValueError(f"{name}: buffer pool capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.held = 0
        self.faults = faults
        self._series = (telemetry.registry.series(name)
                        if telemetry.enabled else None)
        self._audit = None
        if invariants is not None and invariants.enabled:
            self._audit = invariants
            invariants.watch_probe(self)

    def stall_wait(self, sim):
        """Generator: block while a ``stream_stall`` fault is active."""
        if self.faults is not None and self.faults.active:
            yield from self.faults.wait_out(
                sim, kinds=("stream_stall",),
                counter="faults.stream.stalls")

    def acquire(self) -> None:
        """Note one buffer granted (call after the credit is held)."""
        self.held += 1
        if self._audit is not None and self.held > self.capacity:
            self._audit.fail(
                f"buffer.{self.name}", "occupancy-bounds",
                expected=f"held <= {self.capacity}",
                observed=self.held,
                detail="a buffer was granted past the fixed DiskOS pool "
                       "(credit gate bypassed or leaked)")
        if self._series is not None:
            self._series.set(float(self.held))

    def release(self) -> None:
        """Note one buffer returned."""
        if self.held <= 0:
            raise RuntimeError(f"{self.name}: release without acquire")
        self.held -= 1
        if self._series is not None:
            self._series.set(float(self.held))

    def occupancy(self) -> float:
        """Fraction of the pool currently held."""
        return self.held / self.capacity
