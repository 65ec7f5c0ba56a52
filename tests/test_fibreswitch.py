"""Tests for the FibreSwitch fabric (the paper's scale-out recommendation)."""

import pytest

from repro.arch import ActiveDiskConfig
from repro.experiments import run_task
from repro.interconnect import FibreSwitch
from repro.sim import Simulator

MB = 1_000_000
KB = 1024


@pytest.fixture
def sim():
    return Simulator()


class TestTopology:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            FibreSwitch(sim, devices=0)
        with pytest.raises(ValueError):
            FibreSwitch(sim, devices=4, segments=0)

    def test_round_robin_segment_assignment(self, sim):
        switch = FibreSwitch(sim, devices=10, segments=4)
        assert switch.segment_of(0) == 0
        assert switch.segment_of(5) == 1
        assert switch.segment_of(9) == 1

    def test_device_out_of_range(self, sim):
        switch = FibreSwitch(sim, devices=4)
        with pytest.raises(ValueError):
            switch.segment_of(4)

    def test_aggregate_rate_scales_with_segments(self, sim):
        four = FibreSwitch(sim, devices=16, segments=4)
        eight = FibreSwitch(Simulator(), devices=16, segments=8)
        assert eight.aggregate_rate == pytest.approx(2 * four.aggregate_rate)


class TestTransfers:
    def test_same_segment_uses_one_loop(self, sim):
        switch = FibreSwitch(sim, devices=8, segments=4)
        def proc():
            yield from switch.transfer(0, 4, 1 * MB)  # both on loop 0
        sim.process(proc())
        sim.run()
        assert switch.crossings.value == 0
        assert switch.loops[0].bytes_moved.value == 1 * MB
        assert switch.loops[1].bytes_moved.value == 0

    def test_cross_segment_uses_both_loops(self, sim):
        switch = FibreSwitch(sim, devices=8, segments=4)
        def proc():
            yield from switch.transfer(0, 1, 1 * MB)
        sim.process(proc())
        sim.run()
        assert switch.crossings.value == 1
        assert switch.loops[0].bytes_moved.value == 1 * MB
        assert switch.loops[1].bytes_moved.value == 1 * MB

    def test_disjoint_segments_run_in_parallel(self, sim):
        switch = FibreSwitch(sim, devices=8, segments=4)
        def proc(src, dst):
            yield from switch.transfer(src, dst, 10 * MB)
        sim.process(proc(0, 4))   # loop 0
        sim.process(proc(1, 5))   # loop 1
        sim.run()
        single = switch.loops[0].hold_time(10 * MB)
        assert sim.now == pytest.approx(single, rel=0.01)

    def test_bisection_scales_with_segments(self):
        """All-to-all throughput grows with segment count."""
        def all_to_all_time(segments):
            local = Simulator()
            switch = FibreSwitch(local, devices=16, segments=segments)
            def proc(src):
                for j in range(4):
                    yield from switch.transfer(
                        src, (src + 1 + j) % 16, 1 * MB)
            for src in range(16):
                local.process(proc(src))
            local.run()
            return local.now
        assert all_to_all_time(8) < 0.6 * all_to_all_time(2)


class TestMachineIntegration:
    def test_config_variant(self):
        config = ActiveDiskConfig(num_disks=16).with_fibreswitch(8)
        assert config.interconnect_kind == "fibreswitch"
        assert config.switch_segments == 8

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError):
            ActiveDiskConfig(num_disks=4, interconnect_kind="token-ring")
        with pytest.raises(ValueError):
            ActiveDiskConfig(num_disks=4, switch_segments=0)

    def test_machine_builds_and_runs(self):
        config = ActiveDiskConfig(num_disks=8).with_fibreswitch(4)
        result = run_task(config, "sort", scale=1 / 256)
        assert result.elapsed > 0
        assert result.extras["fc_bytes"] > 0

    def test_switch_beats_loop_when_loop_saturated(self):
        base = run_task(ActiveDiskConfig(num_disks=64), "sort",
                        scale=1 / 64)
        switched = run_task(
            ActiveDiskConfig(num_disks=64).with_fibreswitch(8), "sort",
            scale=1 / 64)
        assert switched.elapsed < base.elapsed
