"""Analytic cross-checks for the drive model (DiskSim-style validation).

DiskSim was validated against real drives using published specifications
and SCSI logic analyzers. We have no hardware, but the same discipline
applies one level down: the *simulated* service times must agree with
the closed-form expectations implied by the drive specification. This
module computes those expectations; the test suite runs the simulator
against them.

* sequential streaming rate -> zone media rate;
* random single-sector read  -> overhead + E[seek] + E[rotation];
* full sweep across the drive -> per-request seek from the curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from .geometry import DiskGeometry
from .specs import DriveSpec

__all__ = ["ExpectedServiceTime", "expected_sequential_rate",
           "expected_random_read_time", "validation_points"]


@dataclass(frozen=True)
class ExpectedServiceTime:
    """One analytic validation point."""

    name: str
    expected: float
    tolerance: float          # relative


def expected_sequential_rate(spec: DriveSpec, lbn: int = 0) -> float:
    """Streaming throughput at ``lbn``: the zone's media rate."""
    geometry = DiskGeometry(spec)
    return geometry.media_rate_at_lbn(lbn)


def expected_random_read_time(spec: DriveSpec, nbytes: int) -> float:
    """Mean service time of an independent random read.

    overhead + average seek + half a revolution + media transfer at the
    capacity-weighted mean media rate.
    """
    mean_rate = (spec.media_rate_min + spec.media_rate_max) / 2.0
    return (spec.controller_overhead
            + spec.seek_avg_read
            + spec.avg_rotational_latency
            + nbytes / mean_rate)


def validation_points(spec: DriveSpec) -> List[ExpectedServiceTime]:
    """The standard battery the tests run against the simulator."""
    return [
        ExpectedServiceTime(
            name="sequential-256K-rate",
            expected=expected_sequential_rate(spec),
            tolerance=0.10),
        ExpectedServiceTime(
            name="random-8K-read",
            expected=expected_random_read_time(spec, 8 * 1024),
            tolerance=0.20),
        ExpectedServiceTime(
            name="random-256K-read",
            expected=expected_random_read_time(spec, 256 * 1024),
            tolerance=0.20),
    ]
