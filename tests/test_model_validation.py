"""Model-validation tests: simulated components vs. analytic expectations.

The paper's simulator components were validated against hardware
(DiskSim vs. SCSI logic analyzers, Netsim vs. SP2/ATM microbenchmarks at
2-6 % accuracy). We validate our re-implementations against the closed
forms the specifications imply — the same discipline, one level down.
"""

import copy

import pytest

from repro.arch import ActiveDiskConfig, ClusterConfig, SMPConfig
from repro.disk import DiskDrive, HITACHI_DK3E1T91, SEAGATE_ST39102
from repro.disk.geometry import DiskGeometry
from repro.disk.validation import (
    expected_random_read_time,
    expected_sequential_rate,
    validation_points,
)
from repro.net import FatTree, Network
from repro.sim import Simulator
from repro.telemetry import Telemetry

KB = 1024


def measured_sequential_rate(spec, requests=100, size=256 * KB):
    sim = Simulator()
    drive = DiskDrive(sim, spec)
    def driver():
        lbn = 0
        for _ in range(requests):
            yield drive.read(lbn, size)
            lbn += size // 512
    sim.process(driver())
    sim.run()
    # Ignore the first request's positioning by subtracting its share.
    return requests * size / sim.now


def measured_random_read_time(spec, size, requests=200):
    import random
    sim = Simulator()
    tel = Telemetry(sample_interval=None).install(sim)
    drive = DiskDrive(sim, spec)
    span = drive.geometry.total_sectors - 2 * size // 512
    rng = random.Random(1234)
    lbns = [rng.randrange(span) for _ in range(requests)]
    def driver():
        for lbn in lbns:
            yield drive.read(lbn, size)
    sim.process(driver())
    sim.run()
    return tel.registry.get(f"disk.{drive.name}.response").mean


@pytest.mark.parametrize("spec", [SEAGATE_ST39102, HITACHI_DK3E1T91],
                         ids=["seagate", "hitachi"])
class TestDriveValidation:
    def test_sequential_rate(self, spec):
        expected = expected_sequential_rate(spec)
        measured = measured_sequential_rate(spec)
        assert measured == pytest.approx(expected, rel=0.10)

    def test_random_8k(self, spec):
        expected = expected_random_read_time(spec, 8 * KB)
        measured = measured_random_read_time(spec, 8 * KB)
        assert measured == pytest.approx(expected, rel=0.20)

    def test_random_256k(self, spec):
        expected = expected_random_read_time(spec, 256 * KB)
        measured = measured_random_read_time(spec, 256 * KB)
        assert measured == pytest.approx(expected, rel=0.20)

    def test_validation_battery_passes(self, spec):
        measured = {
            "sequential-256K-rate": measured_sequential_rate(spec),
            "random-8K-read": measured_random_read_time(spec, 8 * KB),
            "random-256K-read": measured_random_read_time(spec, 256 * KB),
        }
        for point in validation_points(spec):
            assert measured[point.name] == pytest.approx(
                point.expected, rel=point.tolerance), point.name


class TestNetworkValidation:
    """Microbenchmark-style checks against closed-form wire math."""

    def _one_transfer_time(self, hosts, src, dst, nbytes):
        sim = Simulator()
        tree = FatTree(sim, hosts)
        network = Network(tree)
        def proc():
            yield from network.transfer(src, dst, nbytes)
        sim.process(proc())
        sim.run()
        return sim.now, tree.params

    @pytest.mark.parametrize("nbytes", [64 * KB, 256 * KB, 1024 * KB])
    def test_same_leaf_message_time(self, nbytes):
        measured, params = self._one_transfer_time(16, 0, 5, nbytes)
        wire = nbytes / params.host_link_rate
        expected = (2 * wire + params.switch_latency
                    + 2 * params.wire_startup)
        assert measured == pytest.approx(expected, rel=0.02)

    @pytest.mark.parametrize("nbytes", [64 * KB, 1024 * KB])
    def test_cross_leaf_message_time(self, nbytes):
        measured, params = self._one_transfer_time(32, 0, 20, nbytes)
        access = nbytes / params.host_link_rate
        uplink = nbytes / params.uplink_rate
        expected = (2 * access + 2 * uplink + 3 * params.switch_latency
                    + 4 * params.wire_startup)
        assert measured == pytest.approx(expected, rel=0.02)

    def test_saturated_link_throughput_exact(self):
        """A saturated access link must deliver exactly its wire rate."""
        sim = Simulator()
        tree = FatTree(sim, 16)
        network = Network(tree)
        size = 256 * KB
        count = 50
        def proc():
            for _ in range(count):
                yield from network.transfer(0, 1, size)
        sim.process(proc())
        sim.run()
        goodput = count * size / sim.now
        # Message-level store-and-forward: tx then rx per message,
        # so a single blocking stream sees half the wire rate.
        assert goodput == pytest.approx(
            tree.params.host_link_rate / 2, rel=0.03)

    def test_pipelined_streams_reach_wire_rate(self):
        """Concurrent streams through one rx link saturate it fully."""
        sim = Simulator()
        tree = FatTree(sim, 16)
        network = Network(tree)
        size = 256 * KB
        count = 25
        def proc(src):
            for _ in range(count):
                yield from network.transfer(src, 15, size)
        for src in range(4):
            sim.process(proc(src))
        sim.run()
        goodput = 4 * count * size / sim.now
        assert goodput == pytest.approx(
            tree.params.host_link_rate, rel=0.05)


class TestConfigValidation:
    """Bad architecture parameters must fail loudly at construction."""

    @pytest.mark.parametrize("kwargs,needle", [
        (dict(num_disks=0), "at least one disk"),
        (dict(io_request_bytes=100), "one sector"),
        (dict(queue_depth=0), "queue depth"),
        (dict(drive_overrides=((7, SEAGATE_ST39102),), num_disks=4),
         "out of range"),
        (dict(disk_cpu_mhz=0), "disk_cpu_mhz"),
        (dict(disk_memory_bytes=-1), "disk_memory_bytes"),
        (dict(interconnect_rate=0.0), "interconnect_rate"),
        (dict(interconnect_loops=0), "interconnect_loops"),
        (dict(interconnect_kind="token-ring"), "interconnect kind"),
        (dict(switch_segments=0), "switch_segments"),
        (dict(frontend_cpu_mhz=-450.0), "frontend_cpu_mhz"),
        (dict(frontend_pci_rate=0), "frontend_pci_rate"),
    ])
    def test_active_disk_rejects(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            ActiveDiskConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,needle", [
        (dict(node_cpu_mhz=0), "node_cpu_mhz"),
        (dict(node_memory_bytes=0), "node_memory_bytes"),
        (dict(node_usable_memory=0), "node_usable_memory"),
        (dict(node_usable_memory=256_000_000), "exceeds"),
        (dict(pci_rate=-1), "pci_rate"),
        (dict(scsi_rate=0), "scsi_rate"),
        (dict(async_receives=0), "async_receives"),
    ])
    def test_cluster_rejects(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            ClusterConfig(**kwargs)

    @pytest.mark.parametrize("kwargs,needle", [
        (dict(cpu_mhz=0), "cpu_mhz"),
        (dict(cpus_per_board=0), "cpus_per_board"),
        (dict(memory_per_board=0), "memory_per_board"),
        (dict(numa_latency=-1e-6), "numa_latency"),
        (dict(numa_link_rate=0), "numa_link_rate"),
        (dict(bte_rate=0), "bte_rate"),
        (dict(xio_nodes=0), "xio_nodes"),
        (dict(xio_total_rate=0), "xio_total_rate"),
        (dict(io_interconnect_rate=0), "io_interconnect_rate"),
        (dict(io_interconnect_loops=0), "io_interconnect_loops"),
        (dict(stripe_chunk_bytes=256), "stripe_chunk_bytes"),
        (dict(spinlock_cost=-1.0), "spinlock_cost"),
    ])
    def test_smp_rejects(self, kwargs, needle):
        with pytest.raises(ValueError, match=needle):
            SMPConfig(**kwargs)

    def test_defaults_are_valid(self):
        ActiveDiskConfig()
        ClusterConfig()
        SMPConfig()


class TestGeometryValidation:
    def test_rejects_non_drivespec(self):
        with pytest.raises(ValueError, match="DriveSpec"):
            DiskGeometry(object())

    def test_rejects_fewer_cylinders_than_zones(self):
        # DriveSpec validates zones <= cylinders itself, so sneak a
        # corrupt copy past it to prove the geometry double-checks.
        bad = copy.copy(SEAGATE_ST39102)
        object.__setattr__(bad, "cylinders", bad.zones - 1)
        with pytest.raises(ValueError, match="fewer cylinders"):
            DiskGeometry(bad)
