"""Tests for the experiment drivers (small configurations, tiny scale)."""

import pytest

from repro.experiments import (
    config_for,
    render_series,
    render_table,
    run_fig1,
    run_fig3,
    run_fig4,
    run_fig5,
    run_table1,
    run_table2,
    run_task,
)

TINY = 1 / 256


class TestRunner:
    def test_config_dispatch(self):
        assert config_for("active", 8).arch == "active"
        assert config_for("cluster", 8).arch == "cluster"
        assert config_for("smp", 8).arch == "smp"

    def test_unknown_arch_rejected(self):
        with pytest.raises(ValueError):
            config_for("mainframe", 8)

    def test_run_task_returns_result(self):
        result = run_task(config_for("active", 4), "select", scale=TINY)
        assert result.task == "select"
        assert result.elapsed > 0


class TestReport:
    def test_render_table(self):
        text = render_table("T", ("a", "b"), [(1, 2.5), ("x", 10000.0)])
        assert "T" in text and "a" in text and "10,000" in text

    def test_render_series(self):
        text = render_series("S", {"one": [1.0, 2.0], "two": [3.0]})
        assert "one" in text and "two" in text


class TestTables:
    def test_table1_contains_all_dates(self):
        text = run_table1()
        for token in ("8/98", "11/98", "7/99", "SMP"):
            assert token in text

    def test_table1_names_its_farm_size(self):
        assert "128-node" in run_table1(128)

    def test_table2_lists_all_tasks(self):
        text = run_table2()
        for task in ("select", "dcube", "dmine", "mview"):
            assert task in text


class TestFigureDrivers:
    def test_fig1_structure_and_render(self):
        result = run_fig1(sizes=(4, 8), tasks=("select", "aggregate"),
                          scale=TINY)
        assert result.normalized("select", "active", 4) == pytest.approx(1.0)
        assert result.normalized("select", "smp", 8) > 0
        text = result.render()
        assert "Figure 1" in text and "select" in text

    def test_fig3_breakdown_sums_to_one(self):
        result = run_fig3(sizes=(4,), scale=TINY)
        fractions = result.breakdown(4, "base")
        assert sum(fractions.values()) == pytest.approx(1.0, abs=0.01)
        assert "Figure 3" in result.render()

    def test_fig4_improvement_computed(self):
        result = run_fig4(sizes=(4,), tasks=("select",),
                          memories_mb=(32, 64), scale=TINY)
        assert abs(result.improvement("select", 4, 64)) < 10
        assert "Figure 4" in result.render()

    def test_fig5_slowdowns(self):
        result = run_fig5(sizes=(4,), tasks=("select", "sort"), scale=TINY)
        assert result.slowdown("select", 4) == pytest.approx(1.0, abs=0.05)
        assert result.slowdown("sort", 4) >= 1.0
        assert "Figure 5" in result.render()
