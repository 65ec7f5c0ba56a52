"""Benchmark: the paper's price/performance bottom line.

"Active Disks provide better price/performance than both SMP-based
conventional disk farms and commodity clusters" (abstract). This bench
combines simulated execution times with the Table 1 cost model and
asserts the claim holds for every task at every configuration size.
"""

import pytest

from repro.analysis import PricePerformance, configuration_price, \
    price_performance_table
from repro.experiments import config_for, run_task
from conftest import BENCH_SCALE

TASKS = ("select", "groupby", "sort", "join")
SIZES = (16, 64, 128)


@pytest.fixture(scope="module")
def cells():
    out = []
    for task in TASKS:
        for disks in SIZES:
            for arch in ("active", "cluster", "smp"):
                config = config_for(arch, disks)
                result = run_task(config, task, BENCH_SCALE)
                out.append(PricePerformance(
                    task=task, arch=arch, num_disks=disks,
                    elapsed=result.elapsed,
                    price=configuration_price(config)))
    return out


def test_price_performance(save_report, cells):
    save_report("price_performance", price_performance_table(cells))

    by_key = {}
    for cell in cells:
        by_key.setdefault((cell.task, cell.num_disks), {})[cell.arch] = cell
    for (task, disks), per_arch in by_key.items():
        active = per_arch["active"].cost_seconds
        # The paper's claim: Active Disks win price/performance against
        # both rivals on every task at every size. The margin is thin
        # only where the cluster's bisection shines (sort/join at 128).
        assert per_arch["cluster"].cost_seconds > 1.05 * active, \
            (task, disks)
        assert per_arch["smp"].cost_seconds > 10 * active, (task, disks)
