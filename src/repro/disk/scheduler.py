"""On-drive request queue scheduling disciplines.

The drive holds a queue of outstanding requests (hosts in the paper keep
up to four 256 KB asynchronous requests in flight per drive) and picks the
next one to service according to a discipline:

* ``fcfs``   — first come, first served (strictly fair, deterministic);
* ``sstf``   — shortest seek time first (greedy on cylinder distance);
* ``look``   — elevator: continue in the current sweep direction, reverse
  at the last pending request.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List

__all__ = ["RequestQueue", "DISCIPLINES"]

DISCIPLINES = ("fcfs", "sstf", "look")


class RequestQueue:
    """Pending disk requests plus a pick-next policy.

    Items are opaque except for a ``cylinder`` attribute the spatial
    disciplines use.
    """

    def __init__(self, discipline: str = "fcfs"):
        if discipline not in DISCIPLINES:
            raise ValueError(
                f"unknown discipline {discipline!r}; pick one of {DISCIPLINES}")
        self.discipline = discipline
        self._queue: Deque = deque()
        self._direction = 1  # for LOOK: +1 toward higher cylinders
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, request) -> None:
        self._queue.append(request)
        self.max_depth = max(self.max_depth, len(self._queue))

    def drain(self) -> List:
        """Remove and return every pending request (drive failure path)."""
        drained = list(self._queue)
        self._queue.clear()
        return drained

    def pop_next(self, current_cylinder: int):
        """Remove and return the next request per the discipline."""
        if not self._queue:
            raise IndexError("pop from empty request queue")
        if self.discipline == "fcfs" or len(self._queue) == 1:
            return self._queue.popleft()
        if self.discipline == "sstf":
            best = min(self._queue,
                       key=lambda r: abs(r.cylinder - current_cylinder))
            self._queue.remove(best)
            return best
        return self._pop_look(current_cylinder)

    def _pop_look(self, current_cylinder: int):
        ahead: List = [r for r in self._queue
                       if (r.cylinder - current_cylinder) * self._direction >= 0]
        if not ahead:
            self._direction = -self._direction
            ahead = list(self._queue)
        best = min(ahead,
                   key=lambda r: abs(r.cylinder - current_cylinder))
        self._queue.remove(best)
        return best
