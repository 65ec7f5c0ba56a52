"""Tests for write-back caching and the remote-queue primitive."""

import pytest

from repro.disk import DiskDrive, SEAGATE_ST39102
from repro.host import RemoteQueue
from repro.sim import Simulator

KB = 1024
MB = 1_000_000


def bursty_writes(policy, count=20, size=32 * KB, gap=0.05):
    sim = Simulator()
    drive = DiskDrive(sim, SEAGATE_ST39102, write_policy=policy)
    latencies = []
    def driver():
        lbn = 0
        for _ in range(count):
            began = sim.now
            yield drive.write(lbn, size)
            latencies.append(sim.now - began)
            lbn += 70_000
            yield sim.timeout(gap)
    sim.process(driver())
    sim.run()
    return drive, latencies, sim.now


class TestWriteBack:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            DiskDrive(Simulator(), SEAGATE_ST39102, write_policy="maybe")

    def test_hides_latency_for_bursty_writes(self):
        _, through, _ = bursty_writes("through")
        _, back, _ = bursty_writes("back")
        assert (sum(back) / len(back)) < 0.5 * (sum(through) / len(through))

    def test_media_work_still_happens(self):
        drive, _, _ = bursty_writes("back")
        # Destaging during idle gaps charged real positioning/transfer.
        assert drive.busy.buckets.get("transfer", 0) > 0
        assert drive.busy.buckets.get("seek", 0) > 0

    def test_bytes_accounted_at_completion(self):
        drive, _, _ = bursty_writes("back", count=10)
        assert drive.bytes_written == 10 * 32 * KB

    def test_sustained_throughput_not_inflated(self):
        """Without idle gaps the writer ends up media-bound either way."""
        def sustained(policy):
            sim = Simulator()
            drive = DiskDrive(sim, SEAGATE_ST39102, write_policy=policy)
            def driver():
                lbn = 0
                for _ in range(100):
                    yield drive.write(lbn, 256 * KB)
                    lbn += 512
            sim.process(driver())
            sim.run()
            # Drain any dirty remainder.
            sim.run(until=sim.now + 1.0)
            return 100 * 256 * KB / drive.busy.total()
        through = sustained("through")
        back = sustained("back")
        assert back == pytest.approx(through, rel=0.25)

    def test_dirty_data_bounded_by_buffer(self):
        sim = Simulator()
        drive = DiskDrive(sim, SEAGATE_ST39102, write_policy="back")
        span = drive.geometry.total_sectors - 1024
        events = [drive.write((i * 600_000) % span, 256 * KB)
                  for i in range(40)]
        watermarks = []
        def monitor():
            while not all(e.triggered for e in events):
                watermarks.append(drive._dirty_bytes)
                yield sim.timeout(1e-3)
        sim.process(monitor())
        sim.run()
        assert max(watermarks) <= drive.spec.cache_bytes
        assert drive.bytes_written == 40 * 256 * KB

    def test_reads_unaffected_by_policy(self):
        def read_time(policy):
            sim = Simulator()
            drive = DiskDrive(sim, SEAGATE_ST39102, write_policy=policy)
            def driver():
                yield drive.read(10_000, 256 * KB)
            sim.process(driver())
            sim.run()
            return sim.now
        assert read_time("back") == pytest.approx(read_time("through"))


class TestRemoteQueue:
    def test_validation(self):
        with pytest.raises(ValueError):
            RemoteQueue(Simulator(), capacity=0)

    def test_backpressure_blocks_sender(self):
        sim = Simulator()
        queue = RemoteQueue(sim, capacity=2)
        times = []
        def sender():
            for _ in range(3):
                yield from queue.acquire_slot()
                times.append(sim.now)
        def receiver():
            yield sim.timeout(5.0)
            queue.release_slot()
        sim.process(sender())
        sim.process(receiver())
        sim.run()
        assert times[0] == 0.0 and times[1] == 0.0
        assert times[2] == pytest.approx(5.0)

    def test_slot_protocol(self):
        sim = Simulator()
        queue = RemoteQueue(sim, capacity=1)
        def proc():
            yield from queue.acquire_slot()
            assert queue.is_full
            queue.release_slot()
            assert not queue.is_full
        sim.process(proc())
        sim.run()
        assert queue.enqueued == 1 and queue.dequeued == 1

    def test_release_without_acquire_rejected(self):
        queue = RemoteQueue(Simulator(), capacity=1)
        with pytest.raises(RuntimeError):
            queue.release_slot()

    def test_high_watermark(self):
        sim = Simulator()
        queue = RemoteQueue(sim, capacity=8)
        def proc():
            for _ in range(5):
                yield from queue.acquire_slot()
        sim.process(proc())
        sim.run()
        assert queue.high_watermark == 5
