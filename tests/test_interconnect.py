"""Unit tests for the queue-based serial interconnect models."""

import pytest

from repro.interconnect import BusGroup, SerialBus, dual_fc_al
from repro.sim import Simulator

MB = 1_000_000


@pytest.fixture
def sim():
    return Simulator()


class TestSerialBus:
    def test_validation(self, sim):
        with pytest.raises(ValueError):
            SerialBus(sim, rate=0)
        with pytest.raises(ValueError):
            SerialBus(sim, rate=100, startup=-1)

    def test_hold_time(self, sim):
        bus = SerialBus(sim, rate=100 * MB, startup=1e-3)
        assert bus.hold_time(100 * MB) == pytest.approx(1.001)

    def test_negative_size_rejected(self, sim):
        bus = SerialBus(sim, rate=100 * MB)
        with pytest.raises(ValueError):
            bus.hold_time(-1)

    def test_single_transfer_timing(self, sim):
        bus = SerialBus(sim, rate=10 * MB, startup=0.0)
        def proc():
            yield from bus.transfer(10 * MB)
        sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_transfers_serialize(self, sim):
        bus = SerialBus(sim, rate=10 * MB)
        def proc():
            yield from bus.transfer(10 * MB)
        for _ in range(3):
            sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(3 * bus.hold_time(10 * MB))

    def test_byte_and_latency_accounting(self, sim):
        bus = SerialBus(sim, rate=10 * MB)
        latencies = []
        def proc():
            began = sim.now
            yield from bus.transfer(5 * MB)
            latencies.append(sim.now - began)
        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert bus.bytes_moved.value == 10 * MB
        assert len(latencies) == 2
        # The second transfer queued behind the first.
        assert max(latencies) > min(latencies)

    def test_utilization_saturated(self, sim):
        bus = SerialBus(sim, rate=10 * MB, startup=0.0)
        def proc():
            yield from bus.transfer(10 * MB)
        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert bus.utilization() == pytest.approx(1.0)

    def test_capacity_allows_concurrency(self, sim):
        bus = SerialBus(sim, rate=10 * MB, capacity=2)
        def proc():
            yield from bus.transfer(10 * MB)
        sim.process(proc())
        sim.process(proc())
        sim.run()
        assert sim.now == pytest.approx(bus.hold_time(10 * MB))


class TestBusGroup:
    def test_needs_members(self):
        with pytest.raises(ValueError):
            BusGroup([])

    def test_balances_across_members(self, sim):
        group = BusGroup([SerialBus(sim, 10 * MB, name="a"),
                          SerialBus(sim, 10 * MB, name="b")])
        def proc():
            yield from group.transfer(10 * MB)
        sim.process(proc())
        sim.process(proc())
        sim.run()
        # Two loops run the two transfers in parallel.
        assert sim.now == pytest.approx(1.0)
        assert all(b.bytes_moved.value == 10 * MB for b in group.buses)

    def test_aggregate_rate(self, sim):
        group = dual_fc_al(sim, aggregate_rate=200 * MB)
        assert group.aggregate_rate == pytest.approx(200 * MB)
        assert len(group.buses) == 2

    def test_aggregate_throughput_under_load(self, sim):
        group = dual_fc_al(sim, aggregate_rate=200 * MB)
        size = 256 * 1024
        count = 200
        def proc():
            for _ in range(count // 4):
                yield from group.transfer(size)
        for _ in range(4):
            sim.process(proc())
        sim.run()
        throughput = count * size / sim.now
        # Within protocol overhead of the 200 MB/s wire rate.
        assert 0.85 * 200 * MB < throughput <= 200 * MB

    def test_loop_validation(self, sim):
        with pytest.raises(ValueError):
            dual_fc_al(sim, loops=0)

    def test_small_transfers_pay_proportionally_more(self, sim):
        """The FCP protocol overhead penalizes 64 KB chunks more than
        256 KB transfers — the SMP's striping penalty."""
        def efficiency(size):
            local = Simulator()
            group = dual_fc_al(local)
            def proc():
                for _ in range(50):
                    yield from group.transfer(size)
            local.process(proc())
            local.run()
            return (50 * size) / (local.now * 100 * MB)
        assert efficiency(64 * 1024) < efficiency(256 * 1024)

    def test_utilization_mean(self, sim):
        group = dual_fc_al(sim)
        def proc():
            yield from group.transfer(1 * MB)
        sim.process(proc())
        sim.run()
        assert 0 < group.utilization() <= 1.0
