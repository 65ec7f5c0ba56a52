"""Parameter-sensitivity sweeps over any configuration field.

The paper studies three design axes (interconnect, memory, communication
architecture) by hand. This framework generalizes that: sweep any
configuration attribute across values, measure one task, and report
normalized elasticities — so new design questions ("what if the embedded
CPU were 400 MHz?", "what about 512 KB requests?") are one call away.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, List, Sequence, Tuple

from ..arch.config import ArchConfig
from .report import render_table
from .runner import DEFAULT_SCALE, run_task

__all__ = ["SensitivityResult", "sweep_parameter"]


@dataclass(frozen=True)
class SensitivityResult:
    """Elapsed time as a function of one swept parameter."""

    task: str
    arch: str
    parameter: str
    points: Tuple[Tuple[Any, float], ...]   # (value, elapsed)

    @property
    def baseline(self) -> float:
        return self.points[0][1]

    def speedups(self) -> List[Tuple[Any, float]]:
        """(value, baseline/elapsed) per point — higher is faster."""
        return [(value, self.baseline / elapsed)
                for value, elapsed in self.points]

    def elasticity(self) -> float:
        """Relative speed gain per relative parameter increase.

        Computed between the first and last numeric points:
        ``(d speed / speed) / (d param / param)``. 1.0 means the task
        scales perfectly with the parameter; ~0 means insensitive.
        Raises ``TypeError`` for non-numeric parameters.
        """
        first_value, first_elapsed = self.points[0]
        last_value, last_elapsed = self.points[-1]
        if not all(isinstance(v, (int, float))
                   for v in (first_value, last_value)):
            raise TypeError(
                f"elasticity needs numeric values for {self.parameter!r}")
        if last_value == first_value:
            return 0.0
        speed_gain = first_elapsed / last_elapsed - 1.0
        param_gain = last_value / first_value - 1.0
        return speed_gain / param_gain

    def render(self) -> str:
        rows = [(value, f"{elapsed:.3f}s",
                 f"{self.baseline / elapsed:.2f}x")
                for value, elapsed in self.points]
        return render_table(
            f"Sensitivity of {self.task} on {self.arch} to "
            f"{self.parameter}",
            (self.parameter, "elapsed", "speedup"),
            rows)


def sweep_parameter(config: ArchConfig, task: str, parameter: str,
                    values: Sequence[Any],
                    scale: float = DEFAULT_SCALE) -> SensitivityResult:
    """Run ``task`` with ``parameter`` set to each value in turn.

    ``parameter`` must be a field of the configuration dataclass; the
    first value is the baseline the speedups are normalized against.
    """
    if not values:
        raise ValueError("sweep needs at least one value")
    if not hasattr(config, parameter):
        raise AttributeError(
            f"{type(config).__name__} has no field {parameter!r}")
    points = []
    for value in values:
        variant = replace(config, **{parameter: value})
        points.append((value, run_task(variant, task, scale).elapsed))
    return SensitivityResult(task=task, arch=config.arch,
                             parameter=parameter, points=tuple(points))
