"""Unit tests for host models: CPU scaling and OS costs."""

import pytest

from repro.host import LINUX_PII_300, REFERENCE_MHZ, Cpu, scaled_os_params
from repro.sim import Simulator


@pytest.fixture
def sim():
    return Simulator()


class TestCpu:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            Cpu(sim, 0)

    def test_scale_factor(self, sim):
        cpu = Cpu(sim, REFERENCE_MHZ / 2)
        assert cpu.scale == pytest.approx(2.0)
        assert cpu.scaled(1.0) == pytest.approx(2.0)

    def test_compute_scales_trace_time(self, sim):
        cpu = Cpu(sim, 550)  # 2x the reference clock
        def proc():
            yield from cpu.compute(1.0)
        sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(0.5)

    def test_compute_serializes_on_one_cpu(self, sim):
        cpu = Cpu(sim, REFERENCE_MHZ)
        def proc():
            yield from cpu.compute(1.0)
        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(2.0)

    def test_busy_buckets(self, sim):
        cpu = Cpu(sim, REFERENCE_MHZ)
        def proc():
            yield from cpu.compute(1.0, bucket="hash")
            yield from cpu.compute_raw(0.5, bucket="os")
        sim.process(proc())
        sim.run()
        assert cpu.busy.buckets == {"hash": pytest.approx(1.0),
                                    "os": pytest.approx(0.5)}

    def test_zero_compute_is_free(self, sim):
        cpu = Cpu(sim, REFERENCE_MHZ)
        def proc():
            yield from cpu.compute(0.0)
        sim.process(proc())
        sim.run()
        assert sim.now == 0.0

    def test_negative_compute_rejected(self, sim):
        cpu = Cpu(sim, REFERENCE_MHZ)
        with pytest.raises(ValueError):
            list(cpu.compute(-1.0))


class TestOSParams:
    def test_published_figures(self):
        assert LINUX_PII_300.syscall == pytest.approx(10e-6)
        assert LINUX_PII_300.context_switch == pytest.approx(103e-6)
        assert LINUX_PII_300.driver_queue == pytest.approx(16e-6)

    def test_scaling_to_faster_cpu(self):
        fast = scaled_os_params(600)
        assert fast.syscall == pytest.approx(5e-6)
        assert fast.context_switch == pytest.approx(51.5e-6)

    def test_invalid_speed_rejected(self):
        with pytest.raises(ValueError):
            LINUX_PII_300.at_mhz(0)

    def test_io_cost_compositions(self):
        params = LINUX_PII_300
        assert params.io_submit_cost() == pytest.approx(26e-6)
        assert params.io_complete_cost() == pytest.approx(154.5e-6)

