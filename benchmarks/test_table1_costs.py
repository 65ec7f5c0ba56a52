"""Benchmark: regenerate Table 1 (configuration cost evolution)."""

from repro.arch import cost_table, smp_cost_estimate


def test_table1_costs(committed):
    committed("table1_costs")

    rows = cost_table(64)
    # The paper's claim: Active Disks consistently about half the
    # cluster's price, and the SMP an order of magnitude above both.
    for *_, ratio in rows:
        assert 0.35 < ratio < 0.55
    assert smp_cost_estimate(64) > 10 * rows[-1][1]
