"""Remote queues (Brewer et al., SPAA'95): the SMP's message primitive.

The paper's SMP implementation moves data between processors with
one-way block transfers and *remote queues* — bounded receiver-side
buffers a sender deposits into without involving the receiver's CPU,
with flow control when the queue fills. The SMP machine uses one per
processor for shuffle delivery, giving the SMP the same bounded-buffer
backpressure the Active Disk (DiskOS comm buffers) and cluster (posted
receives) models have.
"""

from __future__ import annotations

from typing import Any, Generator

from ..sim import Event, Simulator, Store

__all__ = ["RemoteQueue"]


class RemoteQueue:
    """A bounded receiver-side queue with sender-side flow control.

    ``acquire_slot`` blocks the sender while the queue is full (the
    hardware returns backpressure); ``release_slot`` frees the slot once
    the receiver has taken the block. The payload bytes move separately
    via the block-transfer engine.
    """

    def __init__(self, sim: Simulator, capacity: int = 64,
                 name: str = "rq"):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._store = Store(sim, capacity=capacity, name=name)
        self.enqueued = 0
        self.dequeued = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def is_full(self) -> bool:
        return self._store.is_full

    def acquire_slot(self) -> Generator[Event, Any, None]:
        """Reserve a slot; blocks while the queue is full."""
        yield self._store.put(None)
        self.enqueued += 1
        self.high_watermark = max(self.high_watermark, len(self._store))

    def release_slot(self) -> None:
        """Free a slot reserved with :meth:`acquire_slot`."""
        ok, _ = self._store.try_get()
        if not ok:
            raise RuntimeError(f"{self.name}: release without acquire")
        self.dequeued += 1
