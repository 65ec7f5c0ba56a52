"""Ablation: NASD-style Ethernet fabric vs. the FC loop for Active Disks.

The paper's related work contrasts Active Disks with network-attached
secure disks (Gibson et al.). This bench swaps the Active Disk fabric:
dual FC-AL (fat per-link, fixed bisection) against a switched-Ethernet
fat-tree (thin per-link, scaling bisection) — and shows the trade-off
flip at 128 disks: shuffles prefer the fat-tree, front-end-heavy results
prefer the loop.
"""

import pytest

from repro.arch import ActiveDiskConfig
from repro.experiments import run_task, render_table
from conftest import BENCH_SCALE

TASKS = ("sort", "groupby", "select", "aggregate")


def elapsed(disks, task, ethernet):
    config = ActiveDiskConfig(num_disks=disks)
    if ethernet:
        config = config.with_ethernet()
    return run_task(config, task, BENCH_SCALE).elapsed


def test_nasd_fabric(save_report):
    rows = []
    ratios = {}
    for disks in (16, 128):
        for task in TASKS:
            fc = elapsed(disks, task, ethernet=False)
            eth = elapsed(disks, task, ethernet=True)
            ratios[(disks, task)] = eth / fc
            rows.append((f"{task}@{disks}", f"{fc:.2f}s", f"{eth:.2f}s",
                         f"{eth / fc:.2f}x"))
    save_report("ablation_nasd_fabric", render_table(
        "Ablation: dual FC-AL vs switched-Ethernet (NASD-style) fabric",
        ("task@disks", "FC loop", "ethernet", "eth/FC"), rows))

    # The trade-off flips with scale and task shape:
    assert ratios[(128, "sort")] < 0.85      # scaling bisection wins
    assert ratios[(128, "groupby")] > 1.5    # thin front-end pipe loses
    assert ratios[(16, "sort")] == pytest.approx(1.0, abs=0.2)
    assert ratios[(128, "aggregate")] == pytest.approx(1.0, abs=0.1)
