"""Validate simulated dataflow volumes against the real algorithms.

The task builders assert things like "select forwards 1 % of its input"
or "sort repartitions everything, with 1/W staying local". Those claims
are *measurable*: run the reference implementations on small synthetic
datasets shaped like Table 2 and count actual bytes. This module does
the counting; the test suite compares the measurements against the
fractions the simulator charges, closing the loop between
``repro.workloads.algorithms`` (semantics) and ``repro.workloads.tasks``
(costs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import numpy as np

from .algorithms import (
    form_runs,
    grace_hash_join,
    groupby_sum,
    make_relation,
    make_sort_records,
    partition_by_key_range,
    select,
)

__all__ = [
    "MeasuredShuffle",
    "measure_select_fraction",
    "measure_sort_shuffle",
    "measure_sort_runs",
    "measure_join_volumes",
    "measure_groupby_result",
]


@dataclass(frozen=True)
class MeasuredShuffle:
    """Bytes leaving vs. staying per worker in a real repartitioning."""

    total_bytes: int
    crossing_bytes: int

    @property
    def crossing_fraction(self) -> float:
        if self.total_bytes == 0:
            return 0.0
        return self.crossing_bytes / self.total_bytes


def measure_select_fraction(count: int = 50_000, payload: int = 1_000,
                            cut: int = 10, seed: int = 0) -> float:
    """Measured selectivity of the reference select at a 1 %-style cut."""
    relation = make_relation(count, distinct_keys=97, seed=seed,
                             payload=payload)
    matched = select(relation, lambda r: r.value < cut)
    return len(matched) / max(1, len(relation))


def measure_sort_shuffle(count: int = 20_000, workers: int = 8,
                         record_bytes: int = 100,
                         seed: int = 0) -> MeasuredShuffle:
    """How much of the dataset actually crosses workers in sort's P1.

    Records start evenly distributed over workers; a record "crosses"
    when its key-range owner differs from its origin. With uniform keys
    the crossing fraction converges to (W-1)/W — the quantity the
    simulator's shuffle model assumes.
    """
    records = make_sort_records(count, seed=seed)
    origin = np.arange(count) % workers
    parts = partition_by_key_range(records, workers)
    crossing = 0
    for owner, part in enumerate(parts):
        origin_of_part = origin[np.isin(records.payload, part.payload)]
        crossing += int((origin_of_part != owner).sum())
    return MeasuredShuffle(total_bytes=count * record_bytes,
                           crossing_bytes=crossing * record_bytes)


def measure_sort_runs(count: int, run_records: int,
                      seed: int = 0) -> int:
    """Actual run count the reference run-formation produces."""
    records = make_sort_records(count, seed=seed)
    return len(form_runs(records, run_records=run_records))


def measure_join_volumes(count: int = 10_000, distinct: int = 500,
                         tuple_bytes: int = 64, projected_bytes: int = 32,
                         seed: int = 0) -> Dict[str, float]:
    """Measured projection and output ratios of the reference join.

    Returns fractions of the *input byte volume*: ``projected`` (what a
    projecting scan would shuffle) and ``output`` (join result bytes,
    with output tuples at the projected width).
    """
    half = count // 2
    left = make_relation(half, distinct, seed=seed)
    right = make_relation(count - half, distinct, seed=seed + 1)
    matches = grace_hash_join(left, right)
    input_bytes = count * tuple_bytes
    projected = count * projected_bytes
    output = len(matches) * projected_bytes
    return {
        "projected": projected / input_bytes,
        "output": output / input_bytes,
        "matches": float(len(matches)),
    }


def measure_groupby_result(count: int = 30_000, distinct: int = 400,
                           entry_bytes: int = 32, tuple_bytes: int = 64,
                           seed: int = 0) -> float:
    """Measured result-to-input byte ratio of the reference group-by."""
    relation = make_relation(count, distinct, seed=seed)
    groups = groupby_sum(relation)
    return (len(groups) * entry_bytes) / (count * tuple_bytes)
