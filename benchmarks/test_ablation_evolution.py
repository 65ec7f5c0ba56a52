"""Ablation: technology evolution of the disk + embedded processor.

The paper's introduction argues Active Disks are attractive because "the
processing power will evolve as the disk drives evolve". This bench
sweeps drive generations (uniform mechanical/media speedups) against
embedded-CPU speeds on the compute-bound select scan, showing the two
must evolve together: faster media without a faster disk CPU buys
nothing once the scan is compute-bound, and vice versa.
"""

import pytest

from repro.arch import ActiveDiskConfig
from repro.disk import SEAGATE_ST39102, fast_variant
from repro.experiments import run_task
from conftest import BENCH_SCALE

DISKS = 32


def elapsed(drive_speedup=1.0, cpu_mhz=200.0):
    drive = (SEAGATE_ST39102 if drive_speedup == 1.0
             else fast_variant(SEAGATE_ST39102, drive_speedup))
    config = ActiveDiskConfig(num_disks=DISKS, drive=drive,
                              disk_cpu_mhz=cpu_mhz)
    return run_task(config, "select", BENCH_SCALE).elapsed


def test_technology_evolution(save_report):
    cpu_points = (200.0, 400.0, 800.0)
    drive_points = (1.0, 2.0, 4.0)
    grid = {(d, c): elapsed(d, c) for d in drive_points
            for c in cpu_points}

    lines = [f"Ablation: drive-generation x embedded-CPU sweep "
             f"(select, {DISKS} disks)",
             "rows = drive speedup, cols = disk CPU MHz"]
    header = "        " + "  ".join(f"{int(c):>7d}" for c in cpu_points)
    lines.append(header)
    for d in drive_points:
        cells = "  ".join(f"{grid[(d, c)]:6.2f}s" for c in cpu_points)
        lines.append(f"  x{d:<4.1f} {cells}")
    save_report("ablation_evolution", "\n".join(lines))

    # Compute-bound baseline: doubling the CPU alone helps a lot...
    assert grid[(1.0, 400.0)] < 0.65 * grid[(1.0, 200.0)]
    # ...doubling the media alone helps little...
    assert grid[(2.0, 200.0)] > 0.85 * grid[(1.0, 200.0)]
    # ...and the balanced upgrade beats either lopsided one.
    assert grid[(2.0, 400.0)] <= min(grid[(4.0, 200.0)],
                                     grid[(1.0, 400.0)]) * 1.01
