"""A miniature query planner: logical plans compiled to task programs.

The eight benchmark tasks are fixed operator shapes. Real decision
support composes them — the paper's motivating queries are of the form
"scan the fact table, filter, aggregate by key, order the result". This
module provides that composition layer:

* a logical plan is a chain of operators (:class:`Scan` ->
  :class:`Filter` / :class:`Project` / :class:`GroupBy` /
  :class:`OrderBy`), each transforming an estimated *cardinality* and
  *row width*;
* :func:`compile_plan` walks the chain, propagates the volume estimates
  exactly the way a textbook optimizer does, and emits the
  architecture-neutral phases the machines execute — a scan phase with
  the pipelined per-byte costs of all stacked row operators, plus a
  repartition/sort phase when an :class:`OrderBy` (or partitioned
  :class:`GroupBy`) needs one.

Costs reuse the calibrated task constants, so a compiled query is
directly comparable to the built-in tasks.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Tuple, Union

from ..arch.config import ArchConfig
from ..arch.program import CostComponent, Phase, TaskProgram
from ..tracegen.costs import (
    GROUPBY_HASH_NS,
    GROUPBY_MERGE_NS,
    SELECT_FILTER_NS,
    SORT_APPEND_NS,
    SORT_MERGE_NS,
    SORT_PARTITION_NS,
    sort_cpu_ns,
)
from .tasks.base import TaskContext
from .tasks.sort import RUN_BUFFER_FRACTION
from .datasets import DatasetSpec

__all__ = ["Scan", "Filter", "Project", "GroupBy", "OrderBy",
           "QueryPlan", "compile_plan"]


@dataclass(frozen=True)
class Scan:
    """Leaf: read a relation of ``rows`` tuples of ``row_bytes`` each."""

    rows: int
    row_bytes: int

    def __post_init__(self) -> None:
        if self.rows < 0 or self.row_bytes <= 0:
            raise ValueError("Scan needs rows >= 0 and row_bytes > 0")

    @property
    def bytes(self) -> int:
        return self.rows * self.row_bytes


@dataclass(frozen=True)
class Filter:
    """Row-pipelined predicate keeping ``selectivity`` of its input."""

    selectivity: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.selectivity <= 1.0:
            raise ValueError(
                f"selectivity out of [0, 1]: {self.selectivity}")


@dataclass(frozen=True)
class Project:
    """Row-pipelined projection to ``row_bytes`` wide tuples."""

    row_bytes: int

    def __post_init__(self) -> None:
        if self.row_bytes <= 0:
            raise ValueError(f"bad projected width: {self.row_bytes}")


@dataclass(frozen=True)
class GroupBy:
    """Hash aggregation into ``groups`` result rows of ``entry_bytes``."""

    groups: int
    entry_bytes: int = 32

    def __post_init__(self) -> None:
        if self.groups < 1 or self.entry_bytes < 1:
            raise ValueError("GroupBy needs groups >= 1, entry_bytes >= 1")


@dataclass(frozen=True)
class OrderBy:
    """Global sort of whatever reaches it (repartition + merge)."""


Operator = Union[Filter, Project, GroupBy, OrderBy]


@dataclass(frozen=True)
class QueryPlan:
    """A scan followed by a chain of operators, applied in order."""

    name: str
    scan: Scan
    operators: Tuple[Operator, ...] = ()

    def __post_init__(self) -> None:
        seen_blocking = False
        for op in self.operators:
            if isinstance(op, OrderBy) and seen_blocking:
                raise ValueError(
                    f"{self.name}: only one OrderBy per plan is supported")
            if isinstance(op, OrderBy):
                seen_blocking = True


def compile_plan(plan: QueryPlan, config: ArchConfig,
                 scale: float = 1.0) -> TaskProgram:
    """Compile a logical plan to phases for ``config``.

    Volume propagation: filters multiply cardinality, projections change
    row width, group-bys collapse cardinality to the group count. The
    pipelined operators' per-byte costs stack onto the scan phase; an
    OrderBy over the (possibly reduced) intermediate emits sort phases
    over exactly that volume. The final operator's output streams to
    the front-end.
    """
    if not 0 < scale <= 1:
        raise ValueError(f"scale must be in (0, 1], got {scale}")
    rows = plan.scan.rows * scale
    width = plan.scan.row_bytes
    scan_bytes = int(plan.scan.bytes * scale)

    pipeline: List[CostComponent] = []
    phases: List[Phase] = []
    order_volume: Optional[int] = None
    frontend_cpu = 0.0

    for op in plan.operators:
        if isinstance(op, Filter):
            pipeline.append(CostComponent("filter", SELECT_FILTER_NS))
            rows *= op.selectivity
        elif isinstance(op, Project):
            pipeline.append(CostComponent("project", 10.0))
            width = op.row_bytes
        elif isinstance(op, GroupBy):
            pipeline.append(CostComponent("hash", GROUPBY_HASH_NS))
            rows = min(rows, op.groups * scale)
            width = op.entry_bytes
            frontend_cpu = GROUPBY_MERGE_NS
        elif isinstance(op, OrderBy):
            order_volume = max(1, int(rows * width))
        else:  # pragma: no cover - the union is closed
            raise TypeError(f"unknown operator {op!r}")

    result_bytes = max(1, int(rows * width))

    if order_volume is None:
        phases.append(Phase(
            name="scan",
            read_bytes_total=scan_bytes,
            cpu=tuple(pipeline),
            frontend_fraction=min(1.0, result_bytes / max(1, scan_bytes)),
            frontend_cpu_ns_per_byte=frontend_cpu,
        ))
        return TaskProgram(task=plan.name, phases=tuple(phases))

    # Blocking OrderBy: the scan stage materializes the intermediate,
    # then a distributed sort repartitions it.
    phases.append(Phase(
        name="scan",
        read_bytes_total=scan_bytes,
        cpu=tuple(pipeline),
        write_fraction=min(1.0, order_volume / max(1, scan_bytes)),
    ))
    context = TaskContext(config=config,
                          dataset=DatasetSpec(
                              task=plan.name, total_bytes=order_volume,
                              tuple_bytes=width,
                              description="query intermediate"),
                          scale=1.0)
    run_bytes = max(1, int(context.worker_memory * RUN_BUFFER_FRACTION))
    runs = max(1, ceil(context.per_worker_bytes / run_bytes))
    smp = config.arch == "smp"
    phases.append(Phase(
        name="order",
        read_bytes_total=order_volume,
        cpu=(CostComponent("partitioner", SORT_PARTITION_NS),),
        shuffle_fraction=1.0,
        recv=(CostComponent("append", SORT_APPEND_NS),
              CostComponent("sort", sort_cpu_ns(runs))),
        recv_write_fraction=1.0,
        split_disk_groups=smp,
    ))
    phases.append(Phase(
        name="merge",
        read_bytes_total=order_volume,
        cpu=(CostComponent("merge", SORT_MERGE_NS),),
        read_streams=runs,
        frontend_fraction=1.0,
        frontend_cpu_ns_per_byte=frontend_cpu,
        split_disk_groups=smp,
    ))
    return TaskProgram(task=plan.name, phases=tuple(phases))
