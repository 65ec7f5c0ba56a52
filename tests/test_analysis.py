"""Tests for the analytic bottleneck model and workload validation."""

import pytest

from repro.analysis import analyze, analyze_program
from repro.arch import (
    Phase,
    TaskProgram,
)
from repro.experiments import config_for, run_task
from repro.workloads import registered_tasks
from repro.workloads.validation import (
    measure_groupby_result,
    measure_join_volumes,
    measure_select_fraction,
    measure_sort_runs,
    measure_sort_shuffle,
)

SCALE = 1 / 64


class TestAnalyticModel:
    def test_rejects_unknown_config(self):
        program = TaskProgram(task="t", phases=(
            Phase(name="p", read_bytes_total=1),))
        with pytest.raises(TypeError):
            analyze_program(object(), program)

    @pytest.mark.parametrize("arch", ["active", "cluster", "smp"])
    @pytest.mark.parametrize("task", sorted(registered_tasks()))
    def test_agrees_with_simulator(self, arch, task):
        """The closed form stays within ~2x of the DES — the two built
        independently from the same physics."""
        config = config_for(arch, 64)
        analytic = analyze(config, task, SCALE).seconds
        simulated = run_task(config, task, SCALE).elapsed
        assert 0.45 < analytic / simulated < 1.35

    def test_smp_scans_are_interconnect_bound(self):
        estimate = analyze(config_for("smp", 128), "select", SCALE)
        assert estimate.bottlenecks == ("io_interconnect",)

    def test_active_scans_are_cpu_bound(self):
        estimate = analyze(config_for("active", 64), "select", SCALE)
        assert estimate.bottlenecks == ("disk_cpu",)

    def test_cluster_groupby_is_frontend_bound_at_scale(self):
        estimate = analyze(config_for("cluster", 128), "groupby", SCALE)
        assert estimate.bottlenecks == ("frontend_link",)

    def test_active_sort_becomes_interconnect_bound_at_128(self):
        at_64 = analyze(config_for("active", 64), "sort", SCALE)
        at_128 = analyze(config_for("active", 128), "sort", SCALE)
        assert at_128.phases[0].bottleneck == "interconnect"
        # Larger farm, same loop: the loop term is unchanged while the
        # CPU term halves, so the interconnect's dominance margin grows.
        def margin(estimate):
            demands = dict(estimate.phases[0].demands)
            return demands["interconnect"] / demands["disk_cpu"]
        assert margin(at_128) > 1.5 * margin(at_64)

    def test_restricted_mode_adds_relay_bottleneck(self):
        config = config_for("active", 64).restricted()
        estimate = analyze(config, "sort", SCALE)
        names = dict(estimate.phases[0].demands)
        assert "frontend_relay" in names
        assert estimate.phases[0].bottleneck == "frontend_relay"

    def test_render_mentions_bottleneck(self):
        estimate = analyze(config_for("smp", 64), "select", SCALE)
        assert "io_interconnect" in estimate.render()

    def test_estimates_scale_linearly(self):
        small = analyze(config_for("active", 64), "select", 1 / 128)
        big = analyze(config_for("active", 64), "select", 1 / 32)
        assert big.seconds == pytest.approx(4 * small.seconds, rel=0.02)


class TestWorkloadValidation:
    def test_select_measured_selectivity_near_one_percent(self):
        fraction = measure_select_fraction(count=100_000, payload=1_000,
                                           cut=10)
        assert fraction == pytest.approx(0.01, abs=0.003)

    def test_sort_crossing_fraction_matches_simulator_assumption(self):
        workers = 8
        measured = measure_sort_shuffle(count=20_000, workers=workers)
        expected = (workers - 1) / workers
        assert measured.crossing_fraction == pytest.approx(
            expected, abs=0.02)

    def test_sort_run_count_matches_memory_arithmetic(self):
        assert measure_sort_runs(count=10_000, run_records=256) == \
            (10_000 + 255) // 256

    def test_join_projection_ratio(self):
        volumes = measure_join_volumes()
        assert volumes["projected"] == pytest.approx(0.5)

    def test_join_output_order_of_magnitude(self):
        """With sparse 4-byte keys (the Table 2 shape) the measured
        output lands in the same order as the modelled 25 % of input."""
        volumes = measure_join_volumes(count=20_000, distinct=80_000)
        assert 0.005 < volumes["output"] < 0.8

    def test_groupby_result_fraction_shrinks_with_distinct(self):
        small = measure_groupby_result(distinct=100)
        large = measure_groupby_result(distinct=2_000)
        assert small < large
        # entry/tuple ratio bounds the fraction above.
        assert large <= 32 / 64 + 1e-9
