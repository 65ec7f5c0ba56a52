"""Benchmark: the composite query suite across architectures.

Beyond the paper: composite scan/filter/aggregate/sort pipelines (TPC-D
flavoured shapes) compiled by the query planner and run on all three
machines. The Active Disk advantage should track each query's data
reduction: the earlier and harder a query cuts its volume, the bigger
the win over the interconnect-starved SMP.
"""

import pytest

from repro.arch import build_machine
from repro.experiments import config_for, render_table
from repro.sim import Simulator
from repro.workloads.queries import compile_plan
from repro.workloads.query_suite import QUERY_SUITE
from conftest import BENCH_SCALE

DISKS = 64


def run_query(name, arch):
    config = config_for(arch, DISKS)
    program = compile_plan(QUERY_SUITE[name], config, BENCH_SCALE)
    sim = Simulator()
    return build_machine(sim, config).run(program).elapsed


@pytest.fixture(scope="module")
def results():
    return {name: {arch: run_query(name, arch)
                   for arch in ("active", "cluster", "smp")}
            for name in QUERY_SUITE}


def test_query_suite(save_report, results):
    rows = [
        (name,
         f"{r['active']:.2f}s",
         f"{r['cluster'] / r['active']:.2f}",
         f"{r['smp'] / r['active']:.2f}")
        for name, r in results.items()
    ]
    save_report("query_suite", render_table(
        f"Composite query suite, {DISKS} disks "
        f"(normalized to Active Disks; scale={BENCH_SCALE:g})",
        ("query", "active", "cluster", "smp"), rows))

    for name, r in results.items():
        # Every query scans the fact table, so the SMP's starved loop
        # loses on all of them at 64 disks.
        assert r["smp"] > 2.0 * r["active"], name
        # And the cluster stays in the same league as Active Disks.
        assert 0.5 < r["cluster"] / r["active"] < 2.0, name
