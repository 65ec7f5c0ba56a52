"""Price/performance analysis: the paper's actual bottom line.

The abstract's claim is not that Active Disks are fastest — it is that
"Active Disks provide better price/performance than both SMP-based
conventional disk farms and commodity clusters". This module combines
the Table 1 cost model with measured (or analytically estimated)
execution times into $/performance figures:

* ``cost_seconds = price_dollars * elapsed_seconds`` — lower is better;
  equivalently dollars per unit throughput at fixed work.
* ratios are reported against Active Disks, like the paper's figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from ..arch.config import (
    ActiveDiskConfig,
    ArchConfig,
    ClusterConfig,
    SMPConfig,
)
from ..arch.costs import active_disk_cost, cluster_cost, smp_cost_estimate
from ..experiments.report import render_table

__all__ = ["configuration_price", "PricePerformance",
           "price_performance_table"]


def configuration_price(config: ArchConfig, date: str = "7/99") -> float:
    """Price of a configuration per the Table 1 / Section 2.2 model."""
    if isinstance(config, ActiveDiskConfig):
        return active_disk_cost(
            config.num_disks, date,
            memory_mb=config.disk_memory_bytes // 1_000_000)
    if isinstance(config, ClusterConfig):
        return cluster_cost(config.num_nodes, date)
    if isinstance(config, SMPConfig):
        return smp_cost_estimate(config.num_cpus)
    raise TypeError(f"unknown config type {type(config).__name__}")


@dataclass(frozen=True)
class PricePerformance:
    """One (task, arch) cell: time, price and their product."""

    task: str
    arch: str
    num_disks: int
    elapsed: float
    price: float

    @property
    def cost_seconds(self) -> float:
        """Dollars x seconds: lower is better price/performance."""
        return self.price * self.elapsed


def price_performance_table(
        cells: Sequence[PricePerformance],
        date: str = "7/99") -> str:
    """Render cells as a table of price/perf ratios vs Active Disks."""
    by_key: Dict[Tuple[str, int], Dict[str, PricePerformance]] = {}
    for cell in cells:
        by_key.setdefault((cell.task, cell.num_disks), {})[cell.arch] = cell
    rows = []
    for (task, disks), per_arch in sorted(by_key.items()):
        if "active" not in per_arch:
            continue
        base = per_arch["active"].cost_seconds
        row = [f"{task}@{disks}",
               f"${per_arch['active'].price:,.0f}",
               f"{per_arch['active'].elapsed:.2f}s"]
        for arch in ("cluster", "smp"):
            if arch in per_arch:
                row.append(f"{per_arch[arch].cost_seconds / base:.1f}x")
            else:
                row.append("-")
        rows.append(tuple(row))
    return render_table(
        f"Price/performance (cost x time, normalized to Active Disks; "
        f"{date} prices)",
        ("task@disks", "AD price", "AD time", "cluster", "smp"),
        rows)
