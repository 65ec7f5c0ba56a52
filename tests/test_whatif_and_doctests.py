"""Tests for the what-if explorer, distributed Apriori, and doctests."""

import doctest

import pytest

from repro.analysis import (
    DesignPoint,
    design_space,
    pareto_frontier,
    render_design_space,
)
from repro.funcsim import FunctionalCluster
from repro.funcsim.apriori_support import count_support
from repro.workloads.algorithms import make_transactions, support_counts


class TestDesignSpace:
    def test_needs_tasks(self):
        with pytest.raises(ValueError):
            design_space([])

    def test_covers_grid(self):
        points = design_space(["select"], sizes=(16, 64),
                              archs=("active", "smp"))
        assert len(points) == 4
        assert {(p.arch, p.num_disks) for p in points} == {
            ("active", 16), ("active", 64), ("smp", 16), ("smp", 64)}

    def test_smp_never_on_the_frontier(self):
        """The paper's bottom line as a Pareto statement: for scan +
        sort workloads the SMP is dominated at every size."""
        points = design_space(["select", "sort"], sizes=(16, 64, 128))
        frontier = pareto_frontier(points)
        assert frontier
        assert all(p.arch != "smp" for p in frontier)

    def test_smp_bottleneck_is_the_loop(self):
        points = design_space(["select"], sizes=(64,), archs=("smp",))
        assert points[0].bottleneck == "io_interconnect"

    def test_frontier_is_nondominated(self):
        points = design_space(["groupby", "sort"], sizes=(16, 32, 64))
        frontier = pareto_frontier(points)
        for a in frontier:
            for b in points:
                assert not (b.seconds < a.seconds and b.price < a.price)

    def test_render_flags(self):
        points = design_space(["select"], sizes=(16, 128))
        text = render_design_space(points, budget_seconds=1.0)
        assert "over budget" in text and "frontier" in text

    def test_cost_seconds(self):
        point = DesignPoint(arch="active", num_disks=16, seconds=2.0,
                            price=100.0, bottleneck="x")
        assert point.cost_seconds == 200.0


class TestDistributedApriori:
    def test_counts_match_centralized(self):
        transactions = make_transactions(800, 40, seed=1)
        candidates = [(i,) for i in range(10)] + [(0, 1), (1, 2)]
        cluster = FunctionalCluster(workers=4)
        merged, stats = cluster.apriori_pass(transactions, candidates)
        reference = count_support(transactions, candidates)
        assert merged == reference
        assert stats.elapsed > 0

    def test_counter_exchange_is_tiny(self):
        transactions = make_transactions(2_000, 60, seed=2)
        candidates = [(i,) for i in range(60)]
        cluster = FunctionalCluster(workers=8)
        _, stats = cluster.apriori_pass(transactions, candidates)
        data_bytes = sum(8 + 4 * len(t) for t in transactions)
        assert stats.bytes_exchanged < 0.3 * data_bytes

    def test_count_support_agrees_with_reference_counter(self):
        transactions = make_transactions(300, 20, seed=3)
        pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
        ours = count_support(transactions, pairs)
        reference = support_counts(transactions, pairs)
        for pair in pairs:
            assert ours[pair] == reference[pair]


class TestDoctests:
    @pytest.mark.parametrize("module_name", [
        "repro.sim.core",
    ])
    def test_module_doctests(self, module_name):
        import importlib
        module = importlib.import_module(module_name)
        results = doctest.testmod(module, verbose=False)
        assert results.attempted > 0
        assert results.failed == 0
