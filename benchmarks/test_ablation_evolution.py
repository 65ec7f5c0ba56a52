"""Ablation: technology evolution of the disk + embedded processor.

The paper's introduction argues Active Disks are attractive because "the
processing power will evolve as the disk drives evolve". This bench
sweeps drive generations (uniform mechanical/media speedups) against
embedded-CPU speeds on the compute-bound select scan, showing the two
must evolve together: faster media without a faster disk CPU buys
nothing once the scan is compute-bound, and vice versa.
"""


def test_technology_evolution(artifact, committed):
    committed("ablation_evolution")
    grid = artifact("ablation_evolution")

    # Compute-bound baseline: doubling the CPU alone helps a lot...
    assert grid[(1.0, 400.0)] < 0.65 * grid[(1.0, 200.0)]
    # ...doubling the media alone helps little...
    assert grid[(2.0, 200.0)] > 0.85 * grid[(1.0, 200.0)]
    # ...and the balanced upgrade beats either lopsided one.
    assert grid[(2.0, 400.0)] <= min(grid[(4.0, 200.0)],
                                     grid[(1.0, 400.0)]) * 1.01
