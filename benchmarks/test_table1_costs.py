"""Benchmark: regenerate Table 1 (configuration cost evolution)."""

from repro.arch import cost_table, smp_cost_estimate
from repro.experiments import run_table1


def test_table1_costs(save_report):
    text = run_table1(64)
    save_report("table1_costs", text)

    rows = cost_table(64)
    # The paper's claim: Active Disks consistently about half the
    # cluster's price, and the SMP an order of magnitude above both.
    for _, active, cluster, ratio in rows:
        assert 0.35 < ratio < 0.55
    assert smp_cost_estimate(64) > 10 * rows[-1][1]
