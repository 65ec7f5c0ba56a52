"""Key-skew variants of the repartitioning tasks.

The paper's datasets use uniformly distributed keys (sort, join), which
makes every shuffle perfectly balanced. Real decision-support keys are
rarely uniform; this module produces *skewed* variants of any task
program by assigning each repartitioning phase a Zipf destination
distribution, so hot partitions concentrate on a few workers. The
engines serialize at the hot receivers, which is the classic
partitioned-parallelism failure mode the uniform datasets hide.

This is an extension beyond the paper, measured by the
``ablation_skew`` artifact (``repro.experiments.ablations``).
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..arch.program import TaskProgram

__all__ = ["zipf_weights", "skewed_variant", "imbalance_factor"]


def zipf_weights(workers: int, theta: float) -> List[float]:
    """Normalized Zipf(theta) weights over ``workers`` partitions."""
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if theta < 0:
        raise ValueError(f"negative skew exponent: {theta}")
    raw = [1.0 / (rank + 1) ** theta for rank in range(workers)]
    total = sum(raw)
    return [value / total for value in raw]


def imbalance_factor(workers: int, theta: float) -> float:
    """Hot-partition load relative to a perfectly uniform spread.

    1.0 for uniform keys; grows toward ``workers / H(workers)`` as theta
    approaches 1. This is the lower bound on the slowdown a
    receiver-bound shuffle suffers under the skew.
    """
    weights = zipf_weights(workers, theta)
    return max(weights) * workers


def skewed_variant(program: TaskProgram, theta: float) -> TaskProgram:
    """``program`` with every repartitioning phase skewed by Zipf(theta).

    Phases that do not shuffle are untouched; the task name gains a
    ``+skew`` suffix so results are distinguishable.
    """
    if theta < 0:
        raise ValueError(f"negative skew exponent: {theta}")
    phases = tuple(
        replace(phase, shuffle_skew=theta)
        if phase.shuffle_fraction > 0 else phase
        for phase in program.phases
    )
    return TaskProgram(task=f"{program.task}+skew{theta:g}", phases=phases)
