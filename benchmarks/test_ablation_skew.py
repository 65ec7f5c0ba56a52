"""Ablation: key skew in the repartitioning tasks.

The paper's sort and join use uniformly distributed keys, so every
shuffle is perfectly balanced. This bench skews the shuffle's
destination distribution (Zipf) and measures how the three architectures
degrade — partitioned parallelism's classic weakness, hidden by the
uniform datasets.
"""

import pytest

from repro.experiments import config_for, run_task
from repro.sim import Simulator
from repro.arch import build_machine
from repro.workloads import build_program
from repro.workloads.skew import imbalance_factor, skewed_variant
from conftest import BENCH_SCALE

DISKS = 64
THETAS = (0.0, 0.5, 1.0)


def skewed_elapsed(arch, task, theta):
    config = config_for(arch, DISKS)
    program = build_program(task, config, BENCH_SCALE)
    if theta > 0:
        program = skewed_variant(program, theta)
    sim = Simulator()
    return build_machine(sim, config).run(program).elapsed


def test_skew_sensitivity(save_report):
    table = {}
    for arch in ("active", "cluster", "smp"):
        table[arch] = [skewed_elapsed(arch, "sort", theta)
                       for theta in THETAS]
    lines = [f"Ablation: Zipf key skew, sort, {DISKS} disks "
             f"(hot-partition bound: "
             + ", ".join(f"theta={t:g} -> {imbalance_factor(DISKS, t):.1f}x"
                         for t in THETAS) + ")"]
    for arch, values in table.items():
        cells = "  ".join(
            f"theta={theta:g}: {value:6.2f}s ({value / values[0]:4.2f}x)"
            for theta, value in zip(THETAS, values))
        lines.append(f"  {arch:8s} {cells}")
    save_report("ablation_skew", "\n".join(lines))

    for arch, values in table.items():
        # Monotone degradation with skew...
        assert values[0] <= values[1] * 1.02 <= values[2] * 1.04
        # ...but far below the hot-partition bound: pipelining hides
        # part of the imbalance while other resources still bind.
        assert values[2] / values[0] < imbalance_factor(DISKS, 1.0)
    # theta=1 must hurt someone measurably.
    assert any(values[2] > 1.15 * values[0] for values in table.values())
