"""Behavioural tests for the drive model: throughput, latency, streams."""

import pytest

from repro.disk import DiskDrive, HITACHI_DK3E1T91, SEAGATE_ST39102, fast_variant
from repro.sim import Simulator
from repro.telemetry import Telemetry

KB = 1024
MB = 1_000_000


def sequential_throughput(spec, request_bytes=256 * KB, count=100):
    sim = Simulator()
    drive = DiskDrive(sim, spec)
    def driver():
        lbn = 0
        for _ in range(count):
            yield drive.read(lbn, request_bytes)
            lbn += request_bytes // 512
    sim.process(driver())
    sim.run()
    return count * request_bytes / sim.now


class TestSequentialAccess:
    def test_seq_read_near_outer_media_rate(self):
        throughput = sequential_throughput(SEAGATE_ST39102)
        assert 0.85 * SEAGATE_ST39102.media_rate_max < throughput
        assert throughput < SEAGATE_ST39102.media_rate_max

    def test_fast_disk_is_faster(self):
        slow = sequential_throughput(SEAGATE_ST39102)
        fast = sequential_throughput(HITACHI_DK3E1T91)
        assert fast > slow * 1.15

    def test_fast_variant_scales(self):
        doubled = fast_variant(SEAGATE_ST39102, 2.0)
        assert sequential_throughput(doubled) > \
            1.7 * sequential_throughput(SEAGATE_ST39102)

    def test_seq_write_throughput_reasonable(self):
        sim = Simulator()
        drive = DiskDrive(sim, SEAGATE_ST39102)
        def driver():
            lbn = 0
            for _ in range(50):
                yield drive.write(lbn, 256 * KB)
                lbn += 512
        sim.process(driver())
        sim.run()
        throughput = 50 * 256 * KB / sim.now
        assert throughput > 0.8 * SEAGATE_ST39102.media_rate_max


class TestRandomAccess:
    def test_random_8k_latency_band(self):
        sim = Simulator()
        tel = Telemetry(sample_interval=None).install(sim)
        drive = DiskDrive(sim, SEAGATE_ST39102)
        lbns = [(i * 2_654_435) % (drive.geometry.total_sectors - 100)
                for i in range(100)]
        def driver():
            for lbn in lbns:
                yield drive.read(lbn, 8 * KB)
        sim.process(driver())
        sim.run()
        mean = tel.registry.get(f"disk.{drive.name}.response").mean
        # overhead + ~avg seek + ~half rotation + transfer: 6-13 ms.
        assert 5e-3 < mean < 14e-3

    def test_random_much_slower_than_sequential(self):
        sim = Simulator()
        drive = DiskDrive(sim, SEAGATE_ST39102)
        lbns = [(i * 7_654_321) % (drive.geometry.total_sectors - 1000)
                for i in range(50)]
        def driver():
            for lbn in lbns:
                yield drive.read(lbn, 256 * KB)
        sim.process(driver())
        sim.run()
        random_tput = 50 * 256 * KB / sim.now
        assert random_tput < 0.7 * sequential_throughput(SEAGATE_ST39102)


class TestInterleavedStreams:
    def test_interleaved_read_write_pays_positioning(self):
        """Alternating read/write zones must cost seeks (the NOW-sort
        motivation for separate read/write disk groups)."""
        sim = Simulator()
        drive = DiskDrive(sim, SEAGATE_ST39102)
        half = drive.geometry.total_sectors // 2
        def driver():
            read_lbn, write_lbn = 0, half
            for _ in range(40):
                yield drive.read(read_lbn, 256 * KB)
                read_lbn += 512
                yield drive.write(write_lbn, 256 * KB)
                write_lbn += 512
        sim.process(driver())
        sim.run()
        interleaved_tput = 80 * 256 * KB / sim.now
        assert interleaved_tput < 0.8 * sequential_throughput(SEAGATE_ST39102)
        assert drive.busy.buckets.get("seek", 0) > 0

    def test_many_streams_exceeding_segments_lose_streaming(self):
        sim = Simulator()
        drive = DiskDrive(sim, SEAGATE_ST39102)
        streams = SEAGATE_ST39102.cache_segments + 4
        stride = drive.geometry.total_sectors // (streams + 1)
        cursors = [s * stride for s in range(streams)]
        def driver():
            for _ in range(5):
                for s in range(streams):
                    yield drive.read(cursors[s], 256 * KB)
                    cursors[s] += 512
        sim.process(driver())
        sim.run()
        tput = 5 * streams * 256 * KB / sim.now
        assert tput < 0.75 * sequential_throughput(SEAGATE_ST39102)


class TestRequestHandling:
    def test_beyond_capacity_rejected(self):
        sim = Simulator()
        drive = DiskDrive(sim, SEAGATE_ST39102)
        with pytest.raises(ValueError):
            drive.read(drive.geometry.total_sectors - 1, 1 * MB)

    def test_bad_request_parameters_rejected(self):
        sim = Simulator()
        drive = DiskDrive(sim, SEAGATE_ST39102)
        with pytest.raises(ValueError):
            drive.submit("scan", 0, 512)
        with pytest.raises(ValueError):
            drive.submit("read", 0, 0)
        with pytest.raises(ValueError):
            drive.submit("read", -5, 512)

    def test_byte_accounting(self):
        sim = Simulator()
        drive = DiskDrive(sim, SEAGATE_ST39102)
        def driver():
            yield drive.read(0, 64 * KB)
            yield drive.write(100_000, 32 * KB)
        sim.process(driver())
        sim.run()
        assert drive.bytes_read == 64 * KB
        assert drive.bytes_written == 32 * KB

    def test_completion_event_carries_request(self):
        sim = Simulator()
        drive = DiskDrive(sim, SEAGATE_ST39102)
        got = []
        def driver():
            request = yield drive.read(1000, 4 * KB)
            got.append(request)
        sim.process(driver())
        sim.run()
        assert got[0].lbn == 1000 and got[0].op == "read"

    def test_utilization_positive_after_work(self):
        sim = Simulator()
        drive = DiskDrive(sim, SEAGATE_ST39102)
        def driver():
            yield drive.read(0, 256 * KB)
        sim.process(driver())
        sim.run()
        assert 0 < drive.utilization() <= 1.0

    def test_queued_requests_all_complete(self):
        sim = Simulator()
        tel = Telemetry(sample_interval=None).install(sim)
        drive = DiskDrive(sim, SEAGATE_ST39102)
        events = [drive.read(i * 1024, 8 * KB) for i in range(20)]
        sim.run()
        assert all(e.triggered for e in events)
        assert tel.registry.get(f"disk.{drive.name}.response").count == 20
