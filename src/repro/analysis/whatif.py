"""What-if design-space exploration over the analytic model.

Answers procurement-style questions in milliseconds: across
architectures and farm sizes, which configurations meet a time budget
for a workload, and which of those is cheapest? Built entirely on the
closed-form :mod:`repro.analysis.bottleneck` model and the Table 1 cost
model, so whole frontiers evaluate instantly; the capacity-planner
example shows the simulate-to-verify step for the chosen point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..experiments.report import render_table
from ..experiments.runner import config_for
from .bottleneck import analyze
from .price_performance import configuration_price

__all__ = ["DesignPoint", "design_space", "pareto_frontier",
           "render_design_space"]


@dataclass(frozen=True)
class DesignPoint:
    """One (architecture, size) evaluated against a workload."""

    arch: str
    num_disks: int
    seconds: float               # analytic workload time
    price: float
    bottleneck: str

    @property
    def cost_seconds(self) -> float:
        return self.price * self.seconds


def design_space(tasks: Sequence[str],
                 sizes: Sequence[int] = (16, 32, 64, 128),
                 archs: Sequence[str] = ("active", "cluster", "smp"),
                 scale: float = 1.0) -> List[DesignPoint]:
    """Evaluate every (arch, size) against the summed workload time."""
    if not tasks:
        raise ValueError("design_space needs at least one task")
    points: List[DesignPoint] = []
    for arch in archs:
        for size in sizes:
            config = config_for(arch, size)
            estimates = [analyze(config, task, scale) for task in tasks]
            seconds = sum(e.seconds for e in estimates)
            # The workload's dominant bottleneck: the resource binding
            # the largest share of the total time.
            demand_totals: Dict[str, float] = {}
            for estimate in estimates:
                for phase in estimate.phases:
                    name = phase.bottleneck
                    demand_totals[name] = (demand_totals.get(name, 0.0)
                                           + phase.seconds)
            bottleneck = max(demand_totals, key=demand_totals.get)
            points.append(DesignPoint(
                arch=arch, num_disks=size, seconds=seconds,
                price=configuration_price(config),
                bottleneck=bottleneck))
    return points


def pareto_frontier(points: Sequence[DesignPoint]) -> List[DesignPoint]:
    """Points not dominated on (time, price), sorted by time.

    A point dominates another when it is at least as fast *and* at least
    as cheap (strictly better on one axis).
    """
    frontier: List[DesignPoint] = []
    for candidate in sorted(points, key=lambda p: (p.seconds, p.price)):
        if not any(other.seconds <= candidate.seconds
                   and other.price <= candidate.price
                   and (other.seconds < candidate.seconds
                        or other.price < candidate.price)
                   for other in points):
            frontier.append(candidate)
    return frontier


def render_design_space(points: Sequence[DesignPoint],
                        budget_seconds: Optional[float] = None) -> str:
    """Table of points; frontier members and budget misses flagged."""
    frontier = set(id(p) for p in pareto_frontier(points))
    rows = []
    for point in sorted(points, key=lambda p: p.cost_seconds):
        flags = []
        if id(point) in frontier:
            flags.append("frontier")
        if budget_seconds is not None and point.seconds > budget_seconds:
            flags.append("over budget")
        rows.append((
            f"{point.arch}@{point.num_disks}",
            f"{point.seconds:,.0f}s",
            f"${point.price:,.0f}",
            point.bottleneck,
            " ".join(flags),
        ))
    title = "Design space (analytic)"
    if budget_seconds is not None:
        title += f" — budget {budget_seconds:,.0f}s"
    return render_table(title, ("config", "time", "price",
                                "bottleneck", ""), rows)
