"""Tests for the Table 1 cost model."""

import pytest

from repro.arch import (
    PRICE_DATES,
    PRICES,
    active_disk_cost,
    cluster_cost,
    cost_table,
    smp_cost_estimate,
)


class TestTable1:
    def test_published_totals_64_nodes(self):
        """The paper's Table 1 totals (rounded to the nearest $1-2k)."""
        assert active_disk_cost(64, "8/98") == pytest.approx(70_000, rel=0.02)
        assert active_disk_cost(64, "11/98") == pytest.approx(58_000, rel=0.03)
        assert active_disk_cost(64, "7/99") == pytest.approx(50_000, rel=0.03)
        assert cluster_cost(64, "8/98") == pytest.approx(167_000, rel=0.02)
        assert cluster_cost(64, "11/98") == pytest.approx(143_000, rel=0.02)
        # The paper's 7/99 cluster total ($108k) is ~15 % below what its
        # own per-component prices sum to (64 x $1,920 + $4,200 = $127k);
        # we reproduce the component arithmetic, so allow the gap.
        assert cluster_cost(64, "7/99") == pytest.approx(108_000, rel=0.2)

    def test_active_half_of_cluster_at_all_dates(self):
        """"consistently about half that of commodity cluster"."""
        for _date, _active, _cluster, ratio in cost_table(64):
            assert 0.35 < ratio < 0.55

    def test_smp_estimate(self):
        """$1.5 M for the 64-processor Origin with 4 GB."""
        assert smp_cost_estimate(64) == pytest.approx(1_500_000)

    def test_smp_order_of_magnitude_above_active(self):
        assert smp_cost_estimate(64) > 10 * active_disk_cost(64, "7/99")

    def test_prices_decline_over_time(self):
        for kind in (active_disk_cost, cluster_cost):
            costs = [kind(64, date) for date in PRICE_DATES]
            assert costs == sorted(costs, reverse=True)

    def test_scaling_in_node_count(self):
        assert active_disk_cost(128) > 1.9 * active_disk_cost(64) - 10_000

    def test_memory_upgrade_priced(self):
        assert (active_disk_cost(64, memory_mb=64)
                > active_disk_cost(64, memory_mb=32))

    def test_all_dates_have_prices(self):
        assert set(PRICE_DATES) == set(PRICES)
