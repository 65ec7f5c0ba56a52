"""Ablation: NASD-style Ethernet fabric vs. the FC loop for Active Disks.

The paper's related work contrasts Active Disks with network-attached
secure disks (Gibson et al.). This bench swaps the Active Disk fabric:
dual FC-AL (fat per-link, fixed bisection) against a switched-Ethernet
fat-tree (thin per-link, scaling bisection) — and shows the trade-off
flip at 128 disks: shuffles prefer the fat-tree, front-end-heavy results
prefer the loop.
"""

import pytest


def test_nasd_fabric(artifact, committed):
    committed("ablation_nasd_fabric")
    ratios = {key: eth / fc
              for key, (fc, eth) in artifact("ablation_nasd_fabric").items()}

    # The trade-off flips with scale and task shape:
    assert ratios[(128, "sort")] < 0.85      # scaling bisection wins
    assert ratios[(128, "groupby")] > 1.5    # thin front-end pipe loses
    assert ratios[(16, "sort")] == pytest.approx(1.0, abs=0.2)
    assert ratios[(128, "aggregate")] == pytest.approx(1.0, abs=0.1)
