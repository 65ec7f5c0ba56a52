"""The SMP machine: a ccNUMA multiprocessor with a conventional disk farm.

Modelled after the SGI Origin 2000 configuration of Section 2.1:
two-processor boards sharing 128 MB each, a 1 us / 780 MB/s NUMA
interconnect with a 521 MB/s block-transfer engine per board, an
XIO-class I/O subsystem (two I/O nodes, 1.4 GB/s total), and — crucially —
a dual FC-AL (200 MB/s aggregate) carrying **all** disk traffic. Every
byte any processor reads from or writes to the disk farm crosses that
loop, which is why SMP performance saturates as configurations grow while
Active Disks (which filter at the media) keep scaling.

Software structure follows the paper: files striped over the farm in
64 KB chunks, 256 KB asynchronous requests spanning four drives, and two
shared queues (read/write) of blocks in layout order that idle processors
pop under a spinlock. For sort and join the drives are split into
separate read and write groups (the NOW-sort arrangement).

Repartitioning shuffles move through shared memory (BTE + NUMA links)
and never touch the FC loop; "front-end" delivery is just a NUMA
transfer to the collector board — the SMP *is* the server.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import ceil
from typing import Any, Dict, Generator, List

from ..disk import DiskDrive
from ..faults.errors import DriveFailed, FaultError
from ..host import Cpu, RemoteQueue, scaled_os_params
from ..interconnect import BusGroup, SerialBus, dual_fc_al
from ..sim import Event, Mutex, Simulator
from .base import Dribble, Machine, WorkLatch, destination_cycle
from .config import SMPConfig
from .program import Phase

__all__ = ["SharedBlockQueue", "SMPMachine"]


class SharedBlockQueue:
    """The paper's shared queue of fixed-size blocks in layout order.

    Processors lock the queue and grab the next block; the global request
    sequence therefore roughly follows the on-disk layout, avoiding the
    long seeks an a-priori partitioning would cause.
    """

    def __init__(self, sim: Simulator, total_blocks: int,
                 spinlock_cost: float):
        self.sim = sim
        self.total_blocks = total_blocks
        self.spinlock_cost = spinlock_cost
        self.next_block = 0
        self.lock = Mutex(sim, name="blockq")

    def pop(self, cpu: Cpu, bucket: str) -> Generator[Event, Any, int]:
        """Grab the next block index, or -1 when the queue is empty."""
        yield self.lock.request()
        try:
            if self.spinlock_cost > 0:
                yield from cpu.compute_raw(self.spinlock_cost, bucket=bucket)
            index = self.next_block
            if index >= self.total_blocks:
                return -1
            self.next_block += 1
            return index
        finally:
            self.lock.release()


@dataclass
class _PhaseState:
    """Shared per-phase execution state (queue, disk groups, cursor)."""

    queue: SharedBlockQueue
    read_drives: List[DiskDrive]
    write_drives: List[DiskDrive]
    write_cursor: int = 0


class SMPMachine(Machine):
    """Executes task programs on the SMP architecture."""

    arch = "smp"

    def __init__(self, sim: Simulator, config: SMPConfig):
        super().__init__(sim, config)
        self.config: SMPConfig = config
        self.cpus = [Cpu(sim, config.cpu_mhz, name=f"smpcpu{i}")
                     for i in range(config.num_cpus)]
        self.drives = [DiskDrive(sim, config.drive_for(i),
                                 name=f"sdisk{i}", fault_id=f"disk.{i}")
                       for i in range(config.num_disks)]
        self.fc = dual_fc_al(sim, config.io_interconnect_rate,
                             loops=config.io_interconnect_loops)
        per_xio = config.xio_total_rate / config.xio_nodes
        self.xio = BusGroup(
            [SerialBus(sim, per_xio, startup=2e-6, name=f"xio{i}")
             for i in range(config.xio_nodes)],
            name="xio")
        self.numa = BusGroup(
            [SerialBus(sim, config.numa_link_rate,
                       startup=config.numa_latency, name=f"numa{b}")
             for b in range(config.num_boards)],
            name="numa")
        self.bte = [SerialBus(sim, config.bte_rate, startup=config.numa_latency,
                              name=f"bte{b}")
                    for b in range(config.num_boards)]
        # One remote queue per processor (Brewer et al.): shuffle blocks
        # deposit here, bounding the per-receiver staging memory.
        self.remote_queues = [RemoteQueue(sim, capacity=64, name=f"rq{i}")
                              for i in range(config.num_cpus)]
        self.os_params = scaled_os_params(config.cpu_mhz)
        self.frontend_bytes = 0
        # Per-phase shared state (block queue, disk groups, write
        # cursor), keyed by phase name so concurrent programs do not
        # clobber each other.
        self._phase_state: Dict[str, _PhaseState] = {}
        tel = sim.telemetry
        if tel.enabled:
            tel.add_probe("interconnect.utilization", self.fc.utilization)
            tel.add_probe("xio.utilization", self.xio.utilization)
            tel.add_probe("numa.utilization", self.numa.utilization)
            tel.add_probe(
                "host.cpu.utilization.mean",
                lambda: sum(c.utilization() for c in self.cpus)
                / len(self.cpus))
            tel.add_probe(
                "disk.queue.depth.mean",
                lambda: sum(len(d.queue) for d in self.drives)
                / len(self.drives))

    # -- striping ---------------------------------------------------------------
    def board_of(self, cpu_index: int) -> int:
        return cpu_index // self.config.cpus_per_board

    def _chunks(self, drives: List[DiskDrive], offset: int, nbytes: int,
                base_lbn: int):
        """Map a volume byte range to (drive, lbn, span) chunk requests."""
        chunk = self.config.stripe_chunk_bytes
        sector = 512
        cursor = offset
        remaining = nbytes
        while remaining > 0:
            within = cursor % chunk
            span = min(remaining, chunk - within)
            chunk_index = cursor // chunk
            drive = drives[chunk_index % len(drives)]
            row = chunk_index // len(drives)
            lbn = base_lbn + row * (chunk // sector) + within // sector
            yield drive, lbn, span
            cursor += span
            remaining -= span

    def _fc_chunked(self, nbytes: int):
        """Cross the FC loop one striping chunk (FCP exchange) at a time.

        The chunk transfers land on the least-loaded loop individually, so
        a 256 KB request uses both loops, but each 64 KB exchange pays the
        full command/status protocol cost — the reason the shared FC
        delivers well under its 200 MB/s wire rate to striped requests.
        """
        chunk = self.config.stripe_chunk_bytes
        remaining = nbytes
        events = []
        while remaining > 0:
            span = min(chunk, remaining)
            remaining -= span
            events.append(self.sim.process(
                self.fc.transfer(span), name="smp-fc"))
        if events:
            yield self.sim.all_of(events)

    def _volume_io(self, op: str, drives: List[DiskDrive], offset: int,
                   nbytes: int, base_lbn: int) -> Event:
        chunks = self._chunks(drives, offset, nbytes, base_lbn)
        if self.sim.faults.enabled:
            chunks = self._reroute(op, drives, chunks)
        events = [drive.submit(op, lbn, span)
                  for drive, lbn, span in chunks]
        return self.sim.all_of(events)

    def _reroute(self, op: str, drives: List[DiskDrive], chunks):
        """Steer striping chunks around drives marked failed.

        The reconstruction-read model: a failed drive's chunk is served
        by a deterministic survivor (same lbn — every drive has identical
        geometry). Raises :class:`~repro.faults.DriveFailed` when the
        whole group is gone.
        """
        for drive, lbn, span in chunks:
            if drive.failed:
                alive = [d for d in drives if not d.failed]
                if not alive:
                    raise DriveFailed(
                        "smp volume: every drive in the group failed")
                self.sim.faults.note(f"faults.arch.rerouted_{op}_chunks")
                drive = alive[drives.index(drive) % len(alive)]
            yield drive, lbn, span

    # -- hooks ------------------------------------------------------------------
    @property
    def worker_count(self) -> int:
        return self.config.num_cpus

    def worker_cpu(self, w: int) -> Cpu:
        return self.cpus[w]

    def _state_for(self, phase: Phase) -> "_PhaseState":
        state = self._phase_state.get(phase.name)
        if state is None:
            block = self.config.io_request_bytes
            total_blocks = ceil(phase.read_bytes_total / block)
            if phase.split_disk_groups and len(self.drives) >= 2:
                half = len(self.drives) // 2
                read_drives, write_drives = (self.drives[:half],
                                             self.drives[half:])
            else:
                read_drives = write_drives = self.drives
            state = _PhaseState(
                queue=SharedBlockQueue(self.sim, total_blocks,
                                       self.config.spinlock_cost),
                read_drives=read_drives,
                write_drives=write_drives,
            )
            self._phase_state[phase.name] = state
        return state

    def run_worker(self, phase: Phase, w: int, latch: WorkLatch):
        """Shared-queue worker: pop blocks until the queue drains."""
        yield from self._queue_loop(phase, w, latch)

    # -- I/O paths -----------------------------------------------------------------
    def read_block(self, phase: Phase, w: int, nbytes: int,
                   stream: int) -> Generator[Event, Any, None]:
        raise NotImplementedError("SMP reads go through the shared queue")

    def _read_at(self, phase: Phase, w: int, offset: int,
                 nbytes: int) -> Generator[Event, Any, None]:
        cpu = self.cpus[w]
        read_drives = self._state_for(phase).read_drives
        yield from cpu.compute_raw(
            self.os_params.io_submit_cost(), bucket=f"{phase.name}:os")
        yield self._volume_io("read", read_drives, offset, nbytes, 0)
        # Each 64 KB striping chunk is its own FCP exchange on the loop.
        yield from self._fc_chunked(nbytes)
        yield from self.xio.transfer(nbytes)
        yield from self.numa.transfer(nbytes)
        yield from cpu.compute_raw(
            self.os_params.io_complete_cost(), bucket=f"{phase.name}:os")

    def write_block(self, phase: Phase, w: int,
                    nbytes: int) -> Generator[Event, Any, None]:
        cpu = self.cpus[w]
        state = self._state_for(phase)
        write_drives = state.write_drives
        offset = state.write_cursor
        state.write_cursor += nbytes
        write_base = (0 if phase.split_disk_groups
                      else self.drives[0].geometry.total_sectors // 2)
        yield from cpu.compute_raw(
            self.os_params.io_submit_cost(), bucket=f"{phase.name}:os")
        yield from self.numa.transfer(nbytes)
        yield from self.xio.transfer(nbytes)
        yield from self._fc_chunked(nbytes)
        yield self._volume_io("write", write_drives, offset, nbytes,
                              write_base)
        yield from cpu.compute_raw(
            self.os_params.io_complete_cost(), bucket=f"{phase.name}:os")

    def send_shuffle(self, phase: Phase, w: int, dst: int, nbytes: int,
                     latch: WorkLatch) -> None:
        latch.begin()
        self.sim.process(self._deliver_shuffle(phase, w, dst, nbytes, latch),
                         name="smp-shuffle")

    def send_frontend(self, phase: Phase, w: int, nbytes: int,
                      latch: WorkLatch) -> None:
        latch.begin()
        self.sim.process(self._deliver_frontend(phase, w, nbytes, latch),
                         name="smp-fe")

    def _deliver_shuffle(self, phase: Phase, src: int, dst: int, nbytes: int,
                         latch: WorkLatch):
        try:
            queue = self.remote_queues[dst]
            yield from queue.acquire_slot()
            try:
                if self.board_of(src) != self.board_of(dst):
                    yield from self.bte[self.board_of(src)].transfer(nbytes)
                    yield from self.numa.transfer(nbytes)
                yield from self.recv_work(phase, dst, nbytes)
            finally:
                queue.release_slot()
        finally:
            latch.done()

    def _deliver_frontend(self, phase: Phase, w: int, nbytes: int,
                          latch: WorkLatch):
        try:
            if self.board_of(w) != 0:
                yield from self.numa.transfer(nbytes)
            if phase.frontend_cpu_ns_per_byte > 0:
                yield from self.cpus[0].compute(
                    phase.frontend_cpu_ns_per_byte * 1e-9 * nbytes,
                    bucket=f"{phase.name}:frontend")
            self.frontend_bytes += nbytes
        finally:
            latch.done()

    # -- the shared-queue worker loop -------------------------------------------------
    def _queue_loop(self, phase: Phase, w: int, latch: WorkLatch):
        sim = self.sim
        cpu = self.cpus[w]
        block = self.config.io_request_bytes
        depth = self.config.queue_depth
        total = phase.read_bytes_total
        queue = self._state_for(phase).queue
        audit = self._audit
        if audit is not None:
            audit.loop_started(phase)

        shuffle = Dribble(phase.shuffle_fraction)
        frontend = Dribble(phase.frontend_fraction)
        local_write = Dribble(phase.write_fraction)
        shuffle_pending = 0
        frontend_pending = 0
        write_pending = 0
        destinations = destination_cycle(
            self.worker_count, phase.shuffle_skew, start=w)
        dst_index = 0

        def flush(force: bool):
            nonlocal shuffle_pending, frontend_pending, dst_index
            while (shuffle_pending >= block
                   or (force and shuffle_pending > 0)):
                batch = min(block, shuffle_pending)
                shuffle_pending -= batch
                dst = destinations[dst_index % len(destinations)]
                dst_index += 1
                if audit is not None:
                    audit.sent_shuffle(phase, batch)
                self.send_shuffle(phase, w, dst, batch, latch)
            while (frontend_pending >= block
                   or (force and frontend_pending > 0)):
                batch = min(block, frontend_pending)
                frontend_pending -= batch
                if audit is not None:
                    audit.sent_frontend(phase, batch)
                self.send_frontend(phase, w, batch, latch)

        reads = deque()
        done = False
        while not done or reads:
            # Keep up to `depth` block reads in flight.
            while not done and len(reads) < depth:
                index = yield from queue.pop(cpu, f"{phase.name}:lock")
                if index < 0:
                    done = True
                    break
                offset = index * block
                nbytes = min(block, total - offset)
                gen = self._read_at(phase, w, offset, nbytes)
                if sim.faults.enabled:
                    gen = self._guard(gen)
                reader = sim.process(gen, name=f"{phase.name}-sr{w}")
                reads.append((reader, nbytes, offset))
            if not reads:
                break
            reader, nbytes, offset = reads.popleft()
            outcome = yield reader
            while outcome is not None:
                # A drive died with this request in flight; re-issue —
                # _volume_io now steers around drives marked failed.
                if all(d.failed
                       for d in self._state_for(phase).read_drives):
                    raise RuntimeError(
                        f"smp/{phase.name}: every drive in the read "
                        "group failed")
                sim.faults.note("faults.arch.reread_blocks")
                retry = sim.process(
                    self._guard(self._read_at(phase, w, offset, nbytes)),
                    name=f"{phase.name}-sr{w}")
                outcome = yield retry
            yield from self.charge_cpu(cpu, phase, phase.cpu, nbytes)
            if audit is not None:
                audit.processed(phase, nbytes)
            shuffle_pending += shuffle.take(nbytes)
            frontend_pending += frontend.take(nbytes)
            write_pending += local_write.take(nbytes)
            flush(force=False)
            while write_pending >= block:
                write_pending -= block
                yield from self._write_retry(phase, w, block)

        if audit is not None:
            if phase.shuffle_fixed_per_worker:
                audit.fixed_shuffle(phase, phase.shuffle_fixed_per_worker)
            if phase.frontend_fixed_per_worker:
                audit.fixed_frontend(phase, phase.frontend_fixed_per_worker)
        shuffle_pending += phase.shuffle_fixed_per_worker
        frontend_pending += phase.frontend_fixed_per_worker
        flush(force=True)
        if write_pending > 0:
            yield from self._write_retry(phase, w, write_pending)

    def _write_retry(self, phase: Phase, w: int, nbytes: int):
        """``write_block`` that re-issues after an in-flight drive death.

        The re-issued request reroutes around drives marked failed (see
        :meth:`_reroute`); only a whole-group failure propagates.
        """
        state = self._state_for(phase)
        while True:
            try:
                yield from self.write_block(phase, w, nbytes)
                return
            except FaultError:
                if all(d.failed for d in state.write_drives):
                    raise
                self.sim.faults.note("faults.arch.rewritten_blocks")

    def phase_barrier(self):
        """Shared-memory tree barrier across boards (1 us NUMA hops)."""
        from math import log2
        hops = 2 * max(1, ceil(log2(max(2, self.config.num_boards))))
        per_hop = self.config.numa_latency + self.config.spinlock_cost
        yield self.sim.pause(hops * per_hop)

    def _frontend_bytes_observed(self) -> int:
        return self.frontend_bytes

    # -- reporting ------------------------------------------------------------------
    def collect_extras(self) -> Dict[str, float]:
        return {
            "fc_bytes": self.fc.bytes_moved(),
            "fc_utilization": self.fc.utilization(),
            "numa_bytes": self.numa.bytes_moved(),
            "frontend_bytes": float(self.frontend_bytes),
            "disk_bytes_read": float(
                sum(d.bytes_read for d in self.drives)),
            "disk_bytes_written": float(
                sum(d.bytes_written for d in self.drives)),
        }
