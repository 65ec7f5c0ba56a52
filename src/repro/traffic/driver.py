"""Harness integration: traffic cells as first-class sweep cells.

A traffic cell is an ordinary :class:`~repro.experiments.workers.
CellSpec` whose ``traffic`` field carries a
:class:`~repro.traffic.engine.TrafficConfig` encoding. ``run_cell``
dispatches on that field, so traffic cells flow through every existing
execution path unchanged — inline drivers, the process pool (timeouts,
retries, memory budgets), journaled ``SweepRunner`` sweeps with resume,
and the distributed sweep service.

:func:`run_traffic_figure` is the figure-style driver: a grid of
(architecture x farm size x offered load) cells rendered as the
latency-vs-offered-load saturation curve. It is registered as the
``traffic`` entry of :data:`repro.service.requests.FIGURES`, which is
what makes ``repro sweep traffic``, ``repro submit traffic`` and
``repro resume`` work on traffic grids with zero new harness code.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..arch.base import RunResult
from ..experiments.harness import execute_cells
from ..experiments.runner import ARCHITECTURES
from ..experiments.workers import CellSpec
from .engine import DEFAULT_TRAFFIC_SCALE, TrafficConfig, run_traffic
from .report import TrafficFigure

__all__ = ["DEFAULT_LOADS", "DEFAULT_TRAFFIC_SIZES", "traffic_cell",
           "run_traffic_cell", "run_traffic_figure"]

#: Offered-load points for the default saturation curve: comfortably
#: under capacity, near the knee, and well past it.
DEFAULT_LOADS: Tuple[float, ...] = (0.5, 0.9, 1.5)

#: Farm sizes for the default traffic grid.
DEFAULT_TRAFFIC_SIZES: Tuple[int, ...] = (16, 64)

#: Sessions per cell for figure-grid runs: enough for stable tails,
#: small enough that a full grid stays interactive.
DEFAULT_SESSIONS = 1500


def traffic_cell(tconfig: TrafficConfig) -> CellSpec:
    """Wrap a traffic configuration as a sweep cell.

    The variant encodes (load, policy) so keys stay unique across a
    saturation-curve grid sharing one (task, arch, size) triple.
    """
    return CellSpec(
        task="traffic", arch=tconfig.arch, num_disks=tconfig.num_disks,
        variant=f"load{tconfig.load:g}+{tconfig.policy}",
        scale=tconfig.scale, traffic=tconfig.to_dict())


def run_traffic_cell(spec: CellSpec) -> RunResult:
    """Execute one traffic cell; called from ``run_cell`` dispatch."""
    if spec.traffic is None:
        raise ValueError(f"cell {spec.key!r} has no traffic configuration")
    tconfig = TrafficConfig.from_dict(spec.traffic)
    result = run_traffic(tconfig)
    return RunResult(task="traffic", arch=tconfig.arch,
                     num_disks=tconfig.num_disks, elapsed=result.makespan,
                     phases=[], extras=result.to_extras())


def run_traffic_figure(sizes: Sequence[int] = DEFAULT_TRAFFIC_SIZES,
                       tasks: Optional[Sequence[str]] = None,
                       scale: float = DEFAULT_TRAFFIC_SCALE,
                       runner=None, *,
                       archs: Sequence[str] = ARCHITECTURES,
                       loads: Sequence[float] = DEFAULT_LOADS,
                       sessions: int = DEFAULT_SESSIONS,
                       seed: int = 0,
                       policy: str = "reject-newest",
                       queue_capacity: int = 64,
                       tenants: int = 4,
                       tenant_theta: float = 1.0,
                       task_theta: float = 0.5,
                       deadline_factor: float = 8.0) -> TrafficFigure:
    """The saturation-curve grid: archs x sizes x offered loads."""
    grid: Dict[tuple, CellSpec] = {}
    for arch in archs:
        for size in sizes:
            for load in loads:
                tconfig = TrafficConfig(
                    arch=arch, num_disks=size, sessions=sessions,
                    seed=seed, load=load, policy=policy,
                    queue_capacity=queue_capacity, tenants=tenants,
                    tenant_theta=tenant_theta, task_theta=task_theta,
                    tasks=tuple(tasks) if tasks else (), scale=scale,
                    deadline_factor=deadline_factor)
                grid[(arch, size, load, policy)] = traffic_cell(tconfig)
    results = execute_cells(list(grid.values()), runner)
    points = {point: results[spec.key].extras
              for point, spec in grid.items()}
    return TrafficFigure(points)
