"""Ablation: key skew in the repartitioning tasks.

The paper's sort and join use uniformly distributed keys, so every
shuffle is perfectly balanced. This bench skews the shuffle's
destination distribution (Zipf) and measures how the three architectures
degrade — partitioned parallelism's classic weakness, hidden by the
uniform datasets.
"""

from repro.workloads.skew import imbalance_factor

DISKS = 64


def test_skew_sensitivity(artifact, committed):
    committed("ablation_skew")
    table = artifact("ablation_skew")

    for values in table.values():
        # Monotone degradation with skew...
        assert values[0] <= values[1] * 1.02 <= values[2] * 1.04
        # ...but far below the hot-partition bound: pipelining hides
        # part of the imbalance while other resources still bind.
        assert values[2] / values[0] < imbalance_factor(DISKS, 1.0)
    # theta=1 must hurt someone measurably.
    assert any(values[2] > 1.15 * values[0] for values in table.values())
