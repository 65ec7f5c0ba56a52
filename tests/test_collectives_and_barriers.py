"""Tests for tree collectives and per-machine phase barriers."""

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
from repro.net import FatTree, Messaging, Network
from repro.sim import Simulator

KB = 1024
MB = 1_000_000


def allreduce_all(hosts, nbytes):
    sim = Simulator()
    tree = FatTree(sim, hosts)
    messaging = Messaging(Network(tree), hosts)
    done = []

    def participant(host):
        yield from messaging.tree_allreduce(host, nbytes, key="k")
        done.append(host)

    for host in range(hosts):
        sim.process(participant(host))
    sim.run()
    return sim, done


class TestTreeAllreduce:
    @pytest.mark.parametrize("hosts", [2, 4, 8, 16, 32])
    def test_all_participants_complete(self, hosts):
        _, done = allreduce_all(hosts, 16 * KB)
        assert sorted(done) == list(range(hosts))

    @pytest.mark.parametrize("hosts", [3, 5, 6, 7, 12])
    def test_non_power_of_two_completes(self, hosts):
        _, done = allreduce_all(hosts, 16 * KB)
        assert sorted(done) == list(range(hosts))

    def test_logarithmic_critical_path(self):
        """Tree time grows ~log2(N), centralized would grow ~N."""
        sim8, _ = allreduce_all(8, 256 * KB)
        sim32, _ = allreduce_all(32, 256 * KB)
        # 32 hosts = 5 rounds vs 3 rounds: ~1.67x, nowhere near 4x.
        assert sim32.now < 2.5 * sim8.now

    def test_faster_than_central_reduce_at_scale(self):
        hosts, nbytes = 32, 256 * KB
        sim_tree, _ = allreduce_all(hosts, nbytes)

        sim = Simulator()
        tree = FatTree(sim, hosts)
        messaging = Messaging(Network(tree), hosts)

        def participant(host):
            yield from messaging.reduce_to_root(host, 0, nbytes, key="c")
        for host in range(hosts):
            sim.process(participant(host))
        sim.run()
        assert sim_tree.now < sim.now


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
