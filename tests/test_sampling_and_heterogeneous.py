"""Tests for sparkline rendering and heterogeneous-farm configs."""

import pytest

from repro.arch import ActiveDiskConfig, build_machine
from repro.disk import HITACHI_DK3E1T91, SEAGATE_ST39102, fast_variant
from repro.sim import Simulator
from repro.telemetry import sparkline
from repro.workloads import build_program


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_all_zero_is_blank(self):
        assert sparkline([0.0, 0.0, 0.0]).strip() == ""

    def test_peak_uses_strongest_glyph(self):
        text = sparkline([0.0, 0.5, 1.0], width=3)
        assert text[-1] == "@"

    def test_resamples_to_width(self):
        assert len(sparkline(list(range(1000)), width=40)) == 40

    def test_short_input_keeps_length(self):
        assert len(sparkline([1.0, 2.0], width=40)) == 2


class TestHeterogeneousFarms:
    def test_override_validation(self):
        with pytest.raises(ValueError):
            ActiveDiskConfig(num_disks=4,
                             drive_overrides=((9, HITACHI_DK3E1T91),))

    def test_drive_for(self):
        config = ActiveDiskConfig(num_disks=4).with_degraded_drive(
            2, HITACHI_DK3E1T91)
        assert config.drive_for(2) is HITACHI_DK3E1T91
        assert config.drive_for(0) is SEAGATE_ST39102

    def test_with_degraded_drive_replaces(self):
        config = ActiveDiskConfig(num_disks=4)
        config = config.with_degraded_drive(1, HITACHI_DK3E1T91)
        config = config.with_degraded_drive(1, SEAGATE_ST39102)
        assert config.drive_for(1) is SEAGATE_ST39102
        assert len(config.drive_overrides) == 1

    def test_machine_builds_heterogeneous_farm(self):
        slow = fast_variant(SEAGATE_ST39102, 0.5)
        config = ActiveDiskConfig(num_disks=4).with_degraded_drive(0, slow)
        sim = Simulator()
        machine = build_machine(sim, config)
        assert machine.nodes[0].drive.spec is slow
        assert machine.nodes[1].drive.spec is SEAGATE_ST39102

    def test_one_slow_disk_drags_the_farm(self):
        slow = fast_variant(SEAGATE_ST39102, 0.25)
        def run(config):
            sim = Simulator()
            machine = build_machine(sim, config)
            return machine.run(
                build_program("sort", config, 1 / 128)).elapsed
        healthy = run(ActiveDiskConfig(num_disks=8))
        degraded = run(
            ActiveDiskConfig(num_disks=8).with_degraded_drive(0, slow))
        assert degraded > 1.3 * healthy
