"""Remote queues (Brewer et al., SPAA'95): the SMP's message primitive.

The paper's SMP implementation moves data between processors with
one-way block transfers and *remote queues* — bounded receiver-side
buffers a sender deposits into without involving the receiver's CPU,
with flow control when the queue fills. This module implements the
primitive; the SMP machine uses one per processor for shuffle delivery,
giving the SMP the same bounded-buffer backpressure the Active Disk
(DiskOS comm buffers) and cluster (posted receives) models have.
"""

from __future__ import annotations

from typing import Any, Generator

from ..faults.errors import QueueTimeout
from ..faults.policies import RetryPolicy
from ..sim import Event, Simulator, Store

__all__ = ["RemoteQueue", "ACQUIRE_RETRY"]

#: Default bounded-wait schedule for :meth:`RemoteQueue.acquire_slot_with`.
ACQUIRE_RETRY = RetryPolicy(max_attempts=8, base_delay=100e-6, factor=2.0,
                            max_delay=10e-3)


class RemoteQueue:
    """A bounded receiver-side queue with sender-side flow control.

    ``enqueue`` blocks the sender while the queue is full (the hardware
    returns backpressure); ``dequeue`` blocks the receiver while empty.
    Entries are opaque descriptors — the payload bytes move separately
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
        self.timeouts = 0
        self.high_watermark = 0

    def __len__(self) -> int:
        return len(self._store)

    @property
    def is_full(self) -> bool:
        return self._store.is_full

    def enqueue(self, item: Any) -> Generator[Event, Any, None]:
        """Deposit ``item``; blocks while the queue is full."""
        yield self._store.put(item)
        self.enqueued += 1
        self.high_watermark = max(self.high_watermark, len(self._store))

    def try_enqueue(self, item: Any) -> bool:
        """Non-blocking deposit; False when the queue is full."""
        if self._store.try_put(item):
            self.enqueued += 1
            self.high_watermark = max(self.high_watermark,
                                      len(self._store))
            return True
        return False

    def dequeue(self) -> Generator[Event, Any, Any]:
        """Remove and return the oldest entry; blocks while empty."""
        item = yield self._store.get()
        self.dequeued += 1
        return item

    def acquire_slot(self) -> Generator[Event, Any, None]:
        """Reserve a slot without carrying a payload descriptor.

        Convenience for models that only need the flow control: pairs
        with :meth:`release_slot`.
        """
        yield self._store.put(None)
        self.enqueued += 1
        self.high_watermark = max(self.high_watermark, len(self._store))

    def acquire_slot_with(self, retry: RetryPolicy = ACQUIRE_RETRY,
                          ) -> Generator[Event, Any, None]:
        """Bounded-wait :meth:`acquire_slot`: poll with exponential backoff.

        Unlike the blocking acquire, a sender stuck behind a receiver
        that stopped draining (crashed worker, stalled stream) gives up
        after ``retry.max_attempts`` polls and raises
        :class:`~repro.faults.QueueTimeout` so the caller can reroute
        instead of hanging forever.
        """
        for attempt in range(retry.max_attempts):
            if self.try_enqueue(None):
                if attempt > 0:
                    self.sim.faults.note("faults.host.queue_backoffs", attempt)
                return
            yield self.sim.timeout(retry.delay(attempt))
        self.timeouts += 1
        self.sim.faults.note("faults.host.queue_timeouts")
        raise QueueTimeout(self.name)

    def release_slot(self) -> None:
        """Free a slot reserved with :meth:`acquire_slot`."""
        ok, _ = self._store.try_get()
        if not ok:
            raise RuntimeError(f"{self.name}: release without acquire")
        self.dequeued += 1
