"""Benchmark: regenerate Figure 4 (impact of Active Disk memory).

Includes the 128 MB series the paper discusses in prose (Section 4.3):
comm buffers quadruple, and for dcube nothing changes beyond the 64 MB
thresholds.
"""

import pytest

FLAT_TASKS = ("aggregate", "groupby", "dmine")


@pytest.fixture(scope="module")
def fig4(artifact):
    return artifact("fig4_memory")


def test_fig4_sweep(committed):
    committed("fig4_memory")


class TestFig4Shape:
    def test_aggregate_groupby_dmine_flat(self, fig4):
        """"the performance of aggregate, groupby and dmine ... did not
        improve with additional memory"."""
        for task in FLAT_TASKS:
            for size in fig4.sizes:
                assert abs(fig4.improvement(task, size, 64)) < 3.0

    def test_non_dcube_tasks_within_a_few_percent(self, fig4):
        """"for tasks other than dcube, increasing the memory makes a
        negligible (~2 %) difference"."""
        for task in ("select", "join", "mview"):
            for size in fig4.sizes:
                assert abs(fig4.improvement(task, size, 64)) < 5.0

    def test_dcube_under_12_percent_beyond_16(self, fig4):
        for size in (32, 64, 128):
            assert fig4.improvement("dcube", size, 64) < 15.0

    def test_dcube_spike_at_64_disks(self, fig4):
        """The 3->2 pass transition at 64 disks (Section 4.3)."""
        spike = fig4.improvement("dcube", 64, 64)
        assert spike > fig4.improvement("dcube", 128, 64) + 2.0

    def test_dcube_no_gain_beyond_64mb_at_16_disks(self, fig4):
        """"no performance improvement beyond 64 MB"."""
        at_64 = fig4.improvement("dcube", 16, 64)
        at_128 = fig4.improvement("dcube", 16, 128)
        assert at_128 - at_64 < 10.0
