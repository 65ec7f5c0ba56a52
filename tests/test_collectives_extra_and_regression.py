"""Tests for broadcast/scatter/gather."""

import pytest

from repro.net import FatTree, Messaging, Network
from repro.sim import Simulator

KB = 1024


def run_collective(hosts, method, *args, **kwargs):
    sim = Simulator()
    messaging = Messaging(Network(FatTree(sim, hosts)), hosts)
    done = []

    def participant(host):
        yield from getattr(messaging, method)(host, *args, **kwargs)
        done.append(host)

    for host in range(hosts):
        sim.process(participant(host))
    sim.run()
    return sim, done


class TestBroadcast:
    @pytest.mark.parametrize("hosts", [2, 5, 8, 16])
    @pytest.mark.parametrize("root", [0, 1])
    def test_completes_for_any_root(self, hosts, root):
        _, done = run_collective(hosts, "broadcast",
                                 root % hosts, 32 * KB, key="b")
        assert sorted(done) == list(range(hosts))

    def test_logarithmic_rounds(self):
        sim16, _ = run_collective(16, "broadcast", 0, 256 * KB, key="b")
        sim4, _ = run_collective(4, "broadcast", 0, 256 * KB, key="b")
        # 16 hosts = 4 rounds vs 2 rounds: ~2x, not 4x.
        assert sim16.now < 3.0 * sim4.now


class TestScatterGather:
    @pytest.mark.parametrize("hosts", [2, 7, 8])
    def test_scatter_completes(self, hosts):
        _, done = run_collective(hosts, "scatter", 0, 16 * KB, key="s")
        assert sorted(done) == list(range(hosts))

    @pytest.mark.parametrize("hosts", [2, 7, 8])
    def test_gather_completes(self, hosts):
        _, done = run_collective(hosts, "gather", 0, 16 * KB, key="g")
        assert sorted(done) == list(range(hosts))

    def test_scatter_serializes_at_root_link(self):
        sim, _ = run_collective(8, "scatter", 0, 512 * KB, key="s")
        wire = 512 * KB / 12_500_000
        assert sim.now >= 7 * wire
