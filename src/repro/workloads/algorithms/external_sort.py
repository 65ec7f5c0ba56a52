"""Reference two-phase external sort (run formation + multi-way merge).

Mirrors the simulated task's structure exactly: a partitioning step
splits records across workers by key range; each worker forms
memory-bounded sorted runs; a final heap merge produces the sorted
output. Run counts follow the same memory arithmetic the trace generator
uses, so tests can cross-check both.
"""

from __future__ import annotations

import heapq
from typing import List, Sequence

import numpy as np

__all__ = ["partition_by_key_range", "form_runs", "merge_runs",
           "external_sort"]


def partition_by_key_range(records: np.ndarray, workers: int,
                           key: str = "key",
                           key_space: int = 2 ** 40) -> List[np.ndarray]:
    """Split records into ``workers`` contiguous key ranges."""
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    bounds = [key_space * (w + 1) // workers for w in range(workers)]
    parts: List[np.ndarray] = []
    lo = 0
    for hi in bounds:
        mask = (records[key] >= lo) & (records[key] < hi)
        parts.append(records[mask])
        lo = hi
    return parts


def form_runs(records: np.ndarray, run_records: int,
              key: str = "key") -> List[np.ndarray]:
    """Sort memory-sized chunks into runs (phase 1 at one worker)."""
    if run_records < 1:
        raise ValueError(f"run size must be >= 1, got {run_records}")
    runs = []
    for start in range(0, len(records), run_records):
        chunk = records[start:start + run_records]
        runs.append(chunk[np.argsort(chunk[key], kind="stable")])
    return runs


def merge_runs(runs: Sequence[np.ndarray],
               key: str = "key") -> np.ndarray:
    """K-way heap merge of sorted runs (phase 2 at one worker)."""
    if not runs:
        return np.rec.fromarrays([[], []], names=(key, "payload"))
    heap = []
    for run_index, run in enumerate(runs):
        if len(run):
            heap.append((int(run[key][0]), run_index, 0))
    heapq.heapify(heap)
    out_indices: List[tuple] = []
    while heap:
        _, run_index, position = heapq.heappop(heap)
        out_indices.append((run_index, position))
        run = runs[run_index]
        if position + 1 < len(run):
            heapq.heappush(
                heap, (int(run[key][position + 1]), run_index, position + 1))
    return np.rec.array(np.concatenate(
        [runs[r][p:p + 1] for r, p in out_indices]))


def external_sort(records: np.ndarray, workers: int, run_records: int,
                  key: str = "key",
                  key_space: int = 2 ** 40) -> List[np.ndarray]:
    """Full two-phase distributed sort; returns per-worker sorted output.

    Concatenating the worker outputs in order yields the globally sorted
    dataset (worker ranges are contiguous in key space).
    """
    parts = partition_by_key_range(records, workers, key, key_space)
    return [merge_runs(form_runs(part, run_records, key), key)
            for part in parts]
