"""Tests for the analytic trace generator."""

import pytest

from repro.arch import ActiveDiskConfig
from repro.tracegen import (
    SORT_RUN_BASE_NS,
    sort_cpu_ns,
    trace_totals,
    worker_trace,
)
from repro.workloads import build_program

GB = 1_000_000_000


class TestSortCostCurve:
    def test_single_run_is_base_cost(self):
        assert sort_cpu_ns(1) == pytest.approx(SORT_RUN_BASE_NS)

    def test_paper_seven_percent_at_40_vs_20_runs(self):
        """Section 4.3: halving runs from 40 to 20 cut CPU by ~7 %."""
        ratio = sort_cpu_ns(40) / sort_cpu_ns(20)
        assert ratio == pytest.approx(1.07, abs=0.01)

    def test_monotone_in_run_count(self):
        costs = [sort_cpu_ns(n) for n in (1, 2, 8, 40, 200)]
        assert costs == sorted(costs)

    def test_validation(self):
        with pytest.raises(ValueError):
            sort_cpu_ns(0)


class TestWorkerTrace:
    def config(self):
        return ActiveDiskConfig(num_disks=16)

    def test_read_volume_matches_share(self):
        program = build_program("select", self.config(), scale=1 / 64)
        totals = trace_totals(program, worker=0, workers=16)
        expected = program.phases[0].read_bytes_total // 16
        assert totals["read_bytes"] == pytest.approx(expected, rel=0.01)

    def test_frontend_volume_matches_selectivity(self):
        program = build_program("select", self.config(), scale=1 / 64)
        totals = trace_totals(program, worker=0, workers=16)
        assert totals["frontend_bytes"] == pytest.approx(
            0.01 * totals["read_bytes"], rel=0.02)

    def test_sort_trace_moves_everything_to_peers(self):
        program = build_program("sort", self.config(), scale=1 / 64)
        totals = trace_totals(program, worker=3, workers=16)
        share = program.phases[0].read_bytes_total // 16
        assert totals["peer_bytes"] == pytest.approx(share, rel=0.01)
        # Runs written in P1 (receiver side) + output written in P2.
        assert totals["write_bytes"] == pytest.approx(2 * share, rel=0.02)

    def test_compute_time_positive_and_scales_with_volume(self):
        program_small = build_program("groupby", self.config(), scale=1 / 128)
        program_big = build_program("groupby", self.config(), scale=1 / 32)
        small = trace_totals(program_small, 0, 16)["compute_seconds"]
        big = trace_totals(program_big, 0, 16)["compute_seconds"]
        assert big == pytest.approx(4 * small, rel=0.05)

    def test_trace_records_are_typed(self):
        program = build_program("aggregate", self.config(), scale=1 / 128)
        kinds = {record.op for record in worker_trace(program, 0, 16)}
        assert kinds == {"read", "compute", "send_frontend"}

    def test_worker_out_of_range(self):
        program = build_program("select", self.config(), scale=1 / 128)
        with pytest.raises(ValueError):
            list(worker_trace(program, 16, 16))

    def test_uneven_shares_cover_dataset(self):
        program = build_program("select", self.config(), scale=1 / 128)
        workers = 7
        total = sum(trace_totals(program, w, workers)["read_bytes"]
                    for w in range(workers))
        assert total == program.phases[0].read_bytes_total
