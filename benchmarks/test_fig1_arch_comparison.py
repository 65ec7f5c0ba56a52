"""Benchmark: regenerate Figure 1 (eight tasks x three architectures x
16/32/64/128 disks, normalized to Active Disks)."""

import pytest


@pytest.fixture(scope="module")
def fig1(artifact):
    return artifact("fig1_arch_comparison")


def test_fig1_full_sweep(committed):
    committed("fig1_arch_comparison")


class TestFig1Shape:
    def test_16_disk_configs_comparable(self, fig1):
        for task in fig1.tasks:
            for arch in ("cluster", "smp"):
                assert 0.4 < fig1.normalized(task, arch, 16) < 1.8

    def test_smp_ratio_grows_with_configuration_size(self, fig1):
        for task in fig1.tasks:
            r32 = fig1.normalized(task, "smp", 32)
            r128 = fig1.normalized(task, "smp", 128)
            assert r128 > r32

    def test_smp_3_to_10_fold_at_128(self, fig1):
        ratios = [fig1.normalized(task, "smp", 128) for task in fig1.tasks]
        assert all(r > 2.8 for r in ratios)
        assert max(r for r in ratios) < 13

    def test_select_aggregate_largest_smp_gap(self, fig1):
        scan_ratio = min(fig1.normalized("select", "smp", 128),
                         fig1.normalized("aggregate", "smp", 128))
        repart_ratio = max(fig1.normalized("sort", "smp", 128),
                           fig1.normalized("join", "smp", 128))
        assert scan_ratio > repart_ratio

    def test_groupby_is_the_cluster_outlier(self, fig1):
        groupby = fig1.normalized("groupby", "cluster", 128)
        others = [fig1.normalized(task, "cluster", 128)
                  for task in fig1.tasks if task != "groupby"]
        assert groupby > max(others)
