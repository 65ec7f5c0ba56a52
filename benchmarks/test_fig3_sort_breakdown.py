"""Benchmark: regenerate Figure 3 (sort breakdown on Active Disks)."""

import pytest


@pytest.fixture(scope="module")
def fig3(artifact):
    return artifact("fig3_sort_breakdown")


def test_fig3_sweep(committed):
    committed("fig3_sort_breakdown")


class TestFig3Shape:
    def test_sort_phase_dominates_all_configs(self, fig3):
        """Figure 3(a): the sort (repartitioning) phase dominates."""
        for size in fig3.sizes:
            p1, p2 = fig3.phase_elapsed(size, "base")
            assert p1 > p2

    def test_balanced_through_64_disks(self, fig3):
        """Figure 3(b): idle time small up to 64 disks."""
        for size in (16, 32, 64):
            assert fig3.breakdown(size)["idle"] < 0.30

    def test_fast_disk_small_difference(self, fig3):
        """"upgrading the disks makes little difference"."""
        for size in fig3.sizes:
            base = sum(fig3.phase_elapsed(size, "base"))
            fast = sum(fig3.phase_elapsed(size, "fastdisk"))
            assert fast > 0.85 * base

    def test_fast_io_major_impact_only_at_128(self, fig3):
        """"upgrading the I/O interconnect has a major impact" at 128,
        "only a small difference" up to 64."""
        base_64 = sum(fig3.phase_elapsed(64, "base"))
        fast_64 = sum(fig3.phase_elapsed(64, "fastio"))
        assert fast_64 > 0.85 * base_64
        base_128 = sum(fig3.phase_elapsed(128, "base"))
        fast_128 = sum(fig3.phase_elapsed(128, "fastio"))
        assert fast_128 < 0.8 * base_128

    def test_fast_io_removes_idle_at_128(self, fig3):
        assert (fig3.breakdown(128, "fastio")["idle"]
                < fig3.breakdown(128, "base")["idle"] - 0.15)
