"""Host-speed calibration for the end-to-end time metrics.

The hosts this benchmark runs on are shared, and their speed drifts by
up to 1.7x over minutes. ``run.py`` times :func:`kernel_s` between
passes. For the workloads in ``run.CALIBRATED`` it reports each time
metric at the reference speed, the measured value scaled by
``REFERENCE_S / median(kernel seconds)``; ``run.py`` says why the
others stay in host seconds.

The kernel is the benchmark's own plain Python and never imports the
program, so a change to the program cannot move it: two commits measured
at different host speeds compare as if measured at the same speed.
It runs the instruction mix the simulator spends its time on: generator
processes resumed from a binary heap, dict updates, and reads spread over
a table larger than the first-level caches.
"""

from __future__ import annotations

import heapq
import time
from typing import List

#: Kernel seconds on the reference host (2-vCPU Linux VM, Python 3.11);
#: only a unit, so metrics keep their magnitude in seconds.
REFERENCE_S = 0.05
#: Kernel samples taken in each gap between passes.
SAMPLES_PER_GAP = 4

_STEPS = 40000
_TABLE = 1 << 16
_PROCESSES = 64


def _process(ident: int):
    delay = ((ident * 7919) % 101 + 1) / 100.0
    while True:
        yield delay


def kernel_s() -> float:
    """Host seconds one run of the fixed kernel takes."""
    began = time.perf_counter()
    table = [[i, 0.0] for i in range(_TABLE)]
    processes = [_process(i) for i in range(_PROCESSES)]
    heap = [(0.0, i) for i in range(_PROCESSES)]
    tally = {}
    slot = 1
    for _ in range(_STEPS):
        now, ident = heapq.heappop(heap)
        delay = next(processes[ident])
        slot = (slot * 1103515245 + 12345) % _TABLE
        table[slot][1] += delay
        tally[ident & 15] = tally.get(ident & 15, 0.0) + now
        heapq.heappush(heap, (now + delay, ident))
    return time.perf_counter() - began


def samples() -> List[float]:
    return [kernel_s() for _ in range(SAMPLES_PER_GAP)]
