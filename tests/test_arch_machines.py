"""Machine-level tests: byte accounting, extras, determinism, configs."""

from collections import Counter

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
from repro.arch.smp import SMPMachine
from repro.sim import Simulator

KB = 1024
MB = 1_000_000
GB = 1_000_000_000

ALL_CONFIGS = [
    ActiveDiskConfig(num_disks=8),
    ClusterConfig(num_disks=8),
    SMPConfig(num_disks=8),
]
IDS = ["active", "cluster", "smp"]


def scan_program(total=256 * MB, frontend=0.01):
    return TaskProgram(task="scan", phases=(
        Phase(name="scan", read_bytes_total=total,
              cpu=(CostComponent("work", 50.0),),
              frontend_fraction=frontend),
    ))


def shuffle_program(total=128 * MB):
    return TaskProgram(task="shuffle", phases=(
        Phase(name="move", read_bytes_total=total,
              cpu=(CostComponent("split", 20.0),),
              shuffle_fraction=1.0,
              recv=(CostComponent("collect", 20.0),),
              recv_write_fraction=1.0),
    ))


def run(config, program):
    sim = Simulator()
    machine = build_machine(sim, config)
    return machine.run(program)


class TestConfigValidation:
    def test_bad_disk_count(self):
        with pytest.raises(ValueError):
            ActiveDiskConfig(num_disks=0)

    def test_bad_request_size(self):
        with pytest.raises(ValueError):
            ClusterConfig(num_disks=4, io_request_bytes=100)

    def test_bad_queue_depth(self):
        with pytest.raises(ValueError):
            SMPConfig(num_disks=4, queue_depth=0)

    def test_variants(self):
        config = ActiveDiskConfig(num_disks=16)
        assert config.with_interconnect(400 * MB).interconnect_rate == 400 * MB
        assert config.with_memory(64 * MB).disk_memory_bytes == 64 * MB
        assert not config.restricted().direct_disk_to_disk
        assert config.with_frontend_mhz(1000).frontend_cpu_mhz == 1000

    def test_smp_memory_scales_with_processors(self):
        assert SMPConfig(num_disks=64).total_memory == 32 * 128 * MB
        assert SMPConfig(num_disks=128).total_memory == 64 * 128 * MB

    def test_build_machine_dispatch(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            build_machine(sim, object())


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
class TestScanExecution:
    def test_reads_full_dataset(self, config):
        result = run(config, scan_program())
        assert result.extras["disk_bytes_read"] == pytest.approx(
            256 * MB, rel=0.01)

    def test_frontend_receives_fraction(self, config):
        result = run(config, scan_program())
        assert result.extras["frontend_bytes"] == pytest.approx(
            0.01 * 256 * MB, rel=0.02)

    def test_elapsed_positive_and_finite(self, config):
        result = run(config, scan_program())
        assert 0 < result.elapsed < 1e4

    def test_phase_results_recorded(self, config):
        result = run(config, scan_program())
        assert [p.name for p in result.phases] == ["scan"]
        phase = result.phase("scan")
        assert phase.elapsed == pytest.approx(result.elapsed)
        assert phase.busy_total > 0

    def test_unknown_phase_lookup_raises(self, config):
        result = run(config, scan_program())
        with pytest.raises(KeyError):
            result.phase("nope")

    def test_deterministic(self, config):
        a = run(config, scan_program())
        b = run(config, scan_program())
        assert a.elapsed == b.elapsed


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=IDS)
class TestShuffleExecution:
    def test_shuffled_bytes_written_at_receivers(self, config):
        result = run(config, shuffle_program())
        assert result.extras["disk_bytes_written"] == pytest.approx(
            128 * MB, rel=0.02)

    def test_recv_cpu_charged(self, config):
        result = run(config, shuffle_program())
        phase = result.phases[0]
        assert phase.busy.get("collect", 0) > 0


class TestActiveDiskSpecifics:
    def test_scan_does_not_touch_fc(self):
        result = run(ActiveDiskConfig(num_disks=8),
                     scan_program(frontend=0.0))
        assert result.extras["fc_bytes"] == 0

    def test_shuffle_crosses_fc_once(self):
        result = run(ActiveDiskConfig(num_disks=8), shuffle_program())
        expected = 128 * MB * 7 / 8  # 1/8 stays local
        assert result.extras["fc_bytes"] == pytest.approx(expected, rel=0.02)

    def test_restricted_mode_relays_via_frontend(self):
        result = run(ActiveDiskConfig(num_disks=8).restricted(),
                     shuffle_program())
        assert result.extras["frontend_relay_bytes"] == pytest.approx(
            128 * MB * 7 / 8, rel=0.02)
        # Every relayed byte crosses the loop twice.
        assert result.extras["fc_bytes"] == pytest.approx(
            2 * 128 * MB * 7 / 8, rel=0.02)

    def test_restricted_mode_slower(self):
        direct = run(ActiveDiskConfig(num_disks=8), shuffle_program())
        relayed = run(ActiveDiskConfig(num_disks=8).restricted(),
                      shuffle_program())
        assert relayed.elapsed > direct.elapsed

    def test_scratch_check_rejects_oversized_program(self):
        program = TaskProgram(task="big", phases=(
            Phase(name="p", read_bytes_total=1 * MB,
                  scratch_bytes=1 * GB),))
        sim = Simulator()
        machine = build_machine(sim, ActiveDiskConfig(num_disks=4))
        with pytest.raises(ValueError):
            machine.run(program)

    def test_faster_interconnect_speeds_fc_bound_shuffle(self):
        # 16 disks produce ~320 MB/s of shuffle traffic — above the
        # 200 MB/s loop, so doubling the interconnect must help. No
        # receiver writes, so the media cannot become the bottleneck.
        program = TaskProgram(task="exchange", phases=(
            Phase(name="move", read_bytes_total=512 * MB,
                  shuffle_fraction=1.0,
                  recv=(CostComponent("collect", 5.0),)),))
        base = run(ActiveDiskConfig(num_disks=16), program)
        fast = run(ActiveDiskConfig(num_disks=16).with_interconnect(400 * MB),
                   program)
        assert fast.elapsed < 0.9 * base.elapsed


class TestSMPSpecifics:
    def test_scan_crosses_fc_fully(self):
        result = run(SMPConfig(num_disks=8), scan_program(frontend=0.0))
        assert result.extras["fc_bytes"] == pytest.approx(256 * MB, rel=0.01)

    def test_shuffle_goes_through_memory_not_fc(self):
        result = run(SMPConfig(num_disks=8), shuffle_program())
        # FC carries read (128 MB) + receiver writes (128 MB), not the
        # shuffle itself; NUMA carries reads + shuffle.
        assert result.extras["fc_bytes"] == pytest.approx(
            256 * MB, rel=0.02)
        assert result.extras["numa_bytes"] > 128 * MB

    def test_split_disk_groups_separate_read_write(self):
        program = TaskProgram(task="split", phases=(
            Phase(name="move", read_bytes_total=64 * MB,
                  shuffle_fraction=1.0, recv_write_fraction=1.0,
                  split_disk_groups=True),))
        sim = Simulator()
        machine = build_machine(sim, SMPConfig(num_disks=8))
        machine.run(program)
        reads = [d.bytes_read for d in machine.drives]
        writes = [d.bytes_written for d in machine.drives]
        assert all(r > 0 for r in reads[:4]) and all(r == 0 for r in reads[4:])
        assert all(w == 0 for w in writes[:4]) and all(w > 0 for w in writes[4:])

    def test_doubling_interconnect_helps_scan(self):
        slow = run(SMPConfig(num_disks=16), scan_program())
        fast = run(SMPConfig(num_disks=16).with_interconnect(400 * MB),
                   scan_program())
        assert fast.elapsed < 0.75 * slow.elapsed


class TestSMPStriping:
    """The SMP's RAID-0 map: ``SMPMachine._chunks`` and ``_volume_io``."""

    def machine(self):
        sim = Simulator()
        return sim, build_machine(sim, SMPConfig(num_disks=4))

    def test_round_robin_layout(self):
        sim, machine = self.machine()
        drives = machine.drives
        chunk = machine.config.stripe_chunk_bytes
        layout = [(drives.index(drive), lbn, span) for drive, lbn, span
                  in machine._chunks(drives, 0, 6 * chunk, 0)]
        row = chunk // 512
        assert layout == [(0, 0, chunk), (1, 0, chunk), (2, 0, chunk),
                          (3, 0, chunk), (0, row, chunk), (1, row, chunk)]

        def proc():
            yield machine._volume_io("read", drives, 0, chunk, 0)
            yield machine._volume_io("read", drives, chunk, chunk, 0)
            yield machine._volume_io("read", drives, 4 * chunk, chunk, 0)
        sim.process(proc())
        sim.run()
        assert [d.bytes_read for d in drives] == [2 * chunk, chunk, 0, 0]

    def test_request_spans_width_drives(self):
        sim, machine = self.machine()
        request = machine.config.io_request_bytes
        assert request == 256 * KB
        assert machine.config.stripe_chunk_bytes == 64 * KB

        def proc():
            yield machine._volume_io("read", machine.drives, 0, request, 0)
        sim.process(proc())
        sim.run()
        assert [d.bytes_read for d in machine.drives] == [64 * KB] * 4


class TestQueueDepth:
    """No worker ever has more than ``queue_depth`` reads in flight."""

    @pytest.mark.parametrize("depth", [1, 4])
    @pytest.mark.parametrize("config_cls", [ActiveDiskConfig, ClusterConfig,
                                            SMPConfig], ids=IDS)
    def test_depth_bounds_inflight(self, config_cls, depth):
        sim = Simulator()
        machine = build_machine(sim, config_cls(num_disks=4,
                                                queue_depth=depth))
        # The SMP's shared-queue loop reads through _read_at; the other
        # machines' block loop through read_block.
        name = "_read_at" if isinstance(machine, SMPMachine) else "read_block"
        read = getattr(machine, name)
        inflight, peak = Counter(), Counter()

        def counted(phase, w, *args):
            inflight[w] += 1
            peak[w] = max(peak[w], inflight[w])
            try:
                yield from read(phase, w, *args)
            finally:
                inflight[w] -= 1

        setattr(machine, name, counted)
        machine.run(scan_program(total=64 * MB))
        assert sorted(peak) == [0, 1, 2, 3]
        assert set(peak.values()) == {depth}


class TestClusterSpecifics:
    def test_frontend_link_is_the_groupby_bottleneck(self):
        heavy = TaskProgram(task="fe", phases=(
            Phase(name="scan", read_bytes_total=64 * MB,
                  frontend_fraction=0.5),))
        result = run(ClusterConfig(num_disks=8), heavy)
        # 32 MB into a 12.5 MB/s access link: at least ~2.5 s.
        assert result.elapsed > 2.0
        assert result.extras["frontend_rx_utilization"] > 0.5

    def test_network_bytes_accounted(self):
        result = run(ClusterConfig(num_disks=8), shuffle_program())
        assert result.extras["net_bytes"] >= 128 * MB * 7 / 8
