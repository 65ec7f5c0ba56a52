"""Tests for the per-machine phase barriers."""

import pytest

from repro.arch import (
    ActiveDiskConfig,
    ClusterConfig,
    CostComponent,
    Phase,
    SMPConfig,
    TaskProgram,
    build_machine,
)
from repro.sim import Simulator

MB = 1_000_000


class TestPhaseBarriers:
    def program(self):
        return TaskProgram(task="twophase", phases=(
            Phase(name="a", read_bytes_total=4 * MB,
                  cpu=(CostComponent("w", 10.0),)),
            Phase(name="b", read_bytes_total=4 * MB,
                  cpu=(CostComponent("w", 10.0),)),
        ))

    @pytest.mark.parametrize("config_cls", [ActiveDiskConfig,
                                            ClusterConfig, SMPConfig],
                             ids=["active", "cluster", "smp"])
    def test_barrier_cost_charged_between_phases(self, config_cls):
        config = config_cls(num_disks=4)
        sim = Simulator()
        machine = build_machine(sim, config)
        barrier_time = []

        def measure():
            yield from machine.phase_barrier()
            barrier_time.append(sim.now)
        sim.process(measure())
        sim.run()
        assert barrier_time and barrier_time[0] > 0
        # Barrier costs are sub-millisecond-ish: synchronization never
        # dominates these workloads.
        assert barrier_time[0] < 50e-3

    @pytest.mark.parametrize("config_cls", [ActiveDiskConfig,
                                            ClusterConfig, SMPConfig],
                             ids=["active", "cluster", "smp"])
    def test_phases_still_sum_to_elapsed(self, config_cls):
        config = config_cls(num_disks=4)
        sim = Simulator()
        result = build_machine(sim, config).run(self.program())
        total_phases = sum(p.elapsed for p in result.phases)
        assert total_phases == pytest.approx(result.elapsed, rel=1e-6)

    def test_cluster_barrier_grows_with_nodes(self):
        def barrier_cost(nodes):
            sim = Simulator()
            machine = build_machine(sim, ClusterConfig(num_disks=nodes))
            def measure():
                yield from machine.phase_barrier()
            sim.process(measure())
            sim.run()
            return sim.now
        assert barrier_cost(64) > barrier_cost(4)
