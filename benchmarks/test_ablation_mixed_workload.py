"""Ablation: concurrent (mixed) decision-support workloads.

The paper runs one query at a time. Real decision-support servers run
mixes; this bench executes a scan query (select) concurrently with the
interconnect-heavy sort on every architecture and measures the
interference each query suffers — where the architecture's bottleneck
resource is shared, the mix hurts.
"""

import pytest

from repro.experiments import config_for
from repro.sim import Simulator
from repro.arch import build_machine
from repro.workloads import build_program
from conftest import BENCH_SCALE

DISKS = 32


def solo(arch, task):
    config = config_for(arch, DISKS)
    sim = Simulator()
    return build_machine(sim, config).run(
        build_program(task, config, BENCH_SCALE)).elapsed


def mixed(arch, tasks):
    config = config_for(arch, DISKS)
    sim = Simulator()
    machine = build_machine(sim, config)
    programs = [build_program(task, config, BENCH_SCALE)
                for task in tasks]
    results = machine.run_concurrent(programs)
    return {result.task: result.elapsed for result in results}


def test_mixed_workload(save_report):
    lines = [f"Ablation: select + sort running concurrently "
             f"({DISKS} disks)"]
    slowdowns = {}
    for arch in ("active", "cluster", "smp"):
        select_solo = solo(arch, "select")
        sort_solo = solo(arch, "sort")
        together = mixed(arch, ["select", "sort"])
        select_slow = together["select"] / select_solo
        sort_slow = together["sort"] / sort_solo
        slowdowns[arch] = (select_slow, sort_slow)
        lines.append(
            f"  {arch:8s} select {select_solo:6.2f}s -> "
            f"{together['select']:6.2f}s ({select_slow:4.2f}x)   "
            f"sort {sort_solo:6.2f}s -> {together['sort']:6.2f}s "
            f"({sort_slow:4.2f}x)")
    save_report("ablation_mixed_workload", "\n".join(lines))

    for arch, (select_slow, sort_slow) in slowdowns.items():
        # The short scan absorbs most of the interference (it shares
        # CPUs/loops with a much longer job) but never starves...
        assert 1.0 <= select_slow < 6.0, arch
        # ...while the long sort barely notices the scan.
        assert 1.0 <= sort_slow < 1.6, arch
