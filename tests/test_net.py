"""Unit tests for the fat-tree topology, transport and messaging."""

import pytest

from repro.net import ANY_TAG, FatTree, Messaging, Network
from repro.sim import Simulator

KB = 1024
MB = 1_000_000


def make_net(hosts, params=None):
    sim = Simulator()
    tree = FatTree(sim, hosts, params)
    return sim, tree, Network(tree)


class TestTopology:
    def test_validation(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FatTree(sim, 0)

    def test_sixteen_hosts_single_switch(self):
        _, tree, _ = make_net(16)
        assert tree.single_switch
        assert len(tree.leaves) == 1

    def test_128_hosts_use_eight_leaves(self):
        _, tree, _ = make_net(128)
        assert len(tree.leaves) == 8
        assert not tree.single_switch

    def test_every_host_has_a_port(self):
        _, tree, _ = make_net(37)
        assert len(tree.ports) == 37
        for host in range(37):
            assert tree.port(host).host == host

    def test_port_out_of_range(self):
        _, tree, _ = make_net(8)
        with pytest.raises(ValueError):
            tree.port(8)

    def test_same_leaf_detection(self):
        _, tree, _ = make_net(32)
        assert tree.same_leaf(0, 15)
        assert not tree.same_leaf(0, 16)

    def test_hop_counts(self):
        _, tree, _ = make_net(32)
        assert tree.hop_count(0, 1) == 1
        assert tree.hop_count(0, 31) == 3

    def test_uplinks_per_leaf(self):
        _, tree, _ = make_net(32)
        for leaf in tree.leaves:
            assert len(leaf.up.buses) == 2
            assert len(leaf.down.buses) == 2


class TestTransport:
    def test_local_delivery_free(self):
        sim, _, net = make_net(4)
        def proc():
            yield from net.transfer(2, 2, 1 * MB)
        sim.process(proc())
        sim.run()
        assert sim.now == 0.0

    def test_single_message_latency_dominated_by_access_links(self):
        sim, tree, net = make_net(16)
        size = 256 * KB
        def proc():
            yield from net.transfer(0, 5, size)
        sim.process(proc())
        sim.run()
        wire = size / tree.params.host_link_rate
        # store-and-forward: tx + rx serialization.
        assert wire < sim.now < 2.5 * wire

    def test_cross_leaf_adds_uplink_time(self):
        sim1, _, net1 = make_net(32)
        def proc1():
            yield from net1.transfer(0, 1, 1 * MB)
        sim1.process(proc1())
        sim1.run()
        sim2, _, net2 = make_net(32)
        def proc2():
            yield from net2.transfer(0, 20, 1 * MB)
        sim2.process(proc2())
        sim2.run()
        assert sim2.now > sim1.now

    def test_negative_size_rejected(self):
        sim, _, net = make_net(4)
        with pytest.raises(ValueError):
            next(net.transfer(0, 1, -5))

    def test_endpoint_congestion(self):
        """Many senders into one receiver serialize at its access link —
        the group-by front-end bottleneck."""
        sim, tree, net = make_net(16)
        size = 1 * MB
        senders = 10
        def proc(src):
            yield from net.transfer(src, 15, size)
        for src in range(senders):
            sim.process(proc(src))
        sim.run()
        floor = senders * size / tree.params.host_link_rate
        assert sim.now >= floor * 0.95

    def test_bisection_scales_with_leaves(self):
        """All-to-all on 32 hosts moves more bytes/s than the single
        400 Mb/s a lone pair could."""
        sim, tree, net = make_net(32)
        size = 256 * KB
        def proc(src):
            for j in range(4):
                yield from net.transfer(src, (src + 7 + j) % 32, size)
        for src in range(32):
            sim.process(proc(src))
        sim.run()
        aggregate = 32 * 4 * size / sim.now
        assert aggregate > 10 * tree.params.host_link_rate


class TestMessaging:
    def test_send_recv_roundtrip(self):
        sim, _, net = make_net(8)
        messaging = Messaging(net, 8)
        got = []
        def sender():
            yield from messaging.send(0, 3, "tag", 64 * KB, payload="hi")
        def receiver():
            message = yield from messaging.recv(3, "tag")
            got.append((message.src, message.payload))
        sim.process(receiver())
        sim.process(sender())
        sim.run()
        assert got == [(0, "hi")]

    def test_tag_matching_skips_other_tags(self):
        sim, _, net = make_net(8)
        messaging = Messaging(net, 8)
        got = []
        def sender():
            yield from messaging.send(0, 1, "a", 1024)
            yield from messaging.send(0, 1, "b", 1024)
        def receiver():
            message = yield from messaging.recv(1, "b")
            got.append(message.tag)
        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert got == ["b"]

    def test_any_tag_receives_first(self):
        sim, _, net = make_net(8)
        messaging = Messaging(net, 8)
        got = []
        def sender():
            yield from messaging.send(0, 1, "whatever", 1024)
        def receiver():
            message = yield from messaging.recv(1, ANY_TAG)
            got.append(message.tag)
        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert got == ["whatever"]

    def test_isend_returns_event(self):
        sim, _, net = make_net(8)
        messaging = Messaging(net, 8)
        def proc():
            events = [messaging.isend(0, 1, "t", 64 * KB) for _ in range(4)]
            yield sim.all_of(events)
        sim.process(proc())
        sim.run()
        assert messaging.mailboxes[1].pending() == 4

    def test_cpu_overheads_charged(self):
        from repro.sim import Server
        sim, _, net = make_net(4)
        cpus = [Server(sim, name=f"cpu{i}") for i in range(4)]
        messaging = Messaging(net, 4, send_overhead=1e-3,
                              recv_overhead=1e-3, cpus=cpus)
        def sender():
            yield from messaging.send(0, 1, "t", 1024)
        def receiver():
            yield from messaging.recv(1, "t")
        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert cpus[0].busy_time() == pytest.approx(1e-3)
        assert cpus[1].busy_time() == pytest.approx(1e-3)
