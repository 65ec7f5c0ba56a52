"""The disk drive as a simulation process.

A :class:`DiskDrive` owns the geometry, mechanics, segmented cache and
request queue of one spindle, and runs a service loop that, per request:

1. charges the controller's fixed command overhead;
2. consults the cache — buffer hit (no media work), streaming continuation
   (media transfer only) or full positioning (seek + rotational wait +
   media transfer);
3. completes the request's event.

Interface (SCSI/FC) transfer time is deliberately **not** modelled here:
the interconnect a drive sits on is a shared resource owned by the
architecture model (dual FC-AL for Active Disks and SMPs, private
Ultra2 SCSI + PCI for cluster nodes), which charges it separately. The
drive accounts media-side time only, which is what the published
"media transfer rate" measures.

Time accounting lands in a :class:`~repro.sim.stats.BusyTracker` with
buckets ``seek``, ``rotate``, ``transfer``, ``overhead`` so experiment
drivers can build breakdowns.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import ceil
from typing import Optional

from ..faults.errors import DriveFailed
from ..sim import BusyTracker, Event, Simulator
from .cache import SegmentedCache
from .geometry import DiskGeometry
from .mechanics import DiskMechanics
from .scheduler import RequestQueue
from .specs import DriveSpec

__all__ = ["DiskRequest", "DiskDrive"]

#: Read retries (full revolutions) a drive spends on a marginal sector
#: when the fault spec does not pin a count.
DEFAULT_READ_RETRIES = 2


@dataclass(slots=True)
class DiskRequest:
    """One read or write of ``nbytes`` starting at sector ``lbn``."""

    op: str                    # "read" | "write"
    lbn: int
    nbytes: int
    done: Event
    issued_at: float
    cylinder: int = 0          # filled in at submit time, used by schedulers

    def __post_init__(self) -> None:
        if self.op not in ("read", "write"):
            raise ValueError(f"bad op {self.op!r}")
        if self.nbytes <= 0:
            raise ValueError(f"bad request size {self.nbytes}")
        if self.lbn < 0:
            raise ValueError(f"negative LBN {self.lbn}")

    @property
    def sectors(self) -> int:
        return ceil(self.nbytes / 512)


class DiskDrive:
    """One spindle: mechanics + cache + queue + service-loop process.

    ``write_policy`` selects how writes complete:

    * ``"through"`` (default, and what every paper experiment uses):
      a write completes after its media work — the safe setting the
      decision-support tasks assume for run files and outputs.
    * ``"back"``: a write completes once buffered; media work happens
      during idle time (or synchronously once dirty data would exceed
      the buffer). Latency improves for bursty writers; sustained
      throughput is unchanged because the platters still do the work.
    """

    def __init__(self, sim: Simulator, spec: DriveSpec,
                 discipline: str = "fcfs", name: str = "disk",
                 write_policy: str = "through",
                 fault_id: Optional[str] = None):
        if write_policy not in ("through", "back"):
            raise ValueError(
                f"unknown write policy {write_policy!r}; "
                f"pick 'through' or 'back'")
        self.sim = sim
        self.spec = spec
        self.name = name
        self.write_policy = write_policy
        self._dirty: "deque" = deque()
        self._dirty_bytes = 0
        self.geometry = DiskGeometry(spec)
        self.mechanics = DiskMechanics(spec, self.geometry)
        segment_sectors = max(
            1, spec.cache_bytes // spec.cache_segments // spec.sector_bytes)
        self.cache = SegmentedCache(spec.cache_segments, segment_sectors)
        self.queue = RequestQueue(discipline)
        self.current_cylinder = 0
        self.head_lbn = 0
        self.busy = BusyTracker(name)
        self.bytes_read = 0
        self.bytes_written = 0
        self._wakeup: Optional[Event] = None
        self._idle_since = sim.now
        self._track = f"disk.{name}"
        # Hot-path caches: the telemetry hub and sector size are fixed
        # for the simulator's lifetime.
        self._telemetry = sim.telemetry
        self._sector_bytes = spec.sector_bytes
        tel = sim.telemetry
        if tel.enabled:
            tel.registry.bind(f"disk.{name}.queue.depth",
                              lambda: float(len(self.queue)))
            tel.registry.bind(f"disk.{name}.utilization", self.utilization)
        # Fault port: None unless a plan is armed, so the hot paths pay a
        # single `is None` branch (the zero-cost contract).
        self.failed = False
        self.faults = None
        if sim.faults.enabled:
            self.faults = sim.faults.register(fault_id or f"disk.{name}")
            self.faults.on("drive_failure", self._on_drive_failure)
        # Invariant auditor: None unless armed, same zero-cost contract.
        # Tracks request lifecycle (issued/completed/failed exactly once)
        # and the media byte ledger against bytes_read/bytes_written.
        self._audit = None
        if sim.invariants.enabled:
            self._audit = sim.invariants.drive_auditor(self)
        # The service loop idles forever between requests: a daemon by
        # design, excluded from SimStalled deadlock detection.
        self.process = sim.process(self._service_loop(), name=f"{name}-svc",
                                   daemon=True)

    # -- public API --------------------------------------------------------
    def submit(self, op: str, lbn: int, nbytes: int) -> Event:
        """Queue a request; the returned event fires at completion.

        On a failed drive the event fails immediately with
        :class:`~repro.faults.DriveFailed` (pre-defused, so an unwaited
        rejection cannot abort the run).
        """
        if self.failed:
            return self._refuse()
        sectors = ceil(nbytes / self._sector_bytes)
        if lbn + sectors > self.geometry.total_sectors:
            raise ValueError(
                f"{self.name}: request [{lbn}, {lbn + sectors}) beyond "
                f"capacity {self.geometry.total_sectors} sectors")
        request = DiskRequest(
            op=op, lbn=lbn, nbytes=nbytes,
            done=Event(self.sim), issued_at=self.sim.now)
        request.cylinder = self.geometry.cylinder_of_lbn(lbn)
        if self._audit is not None:
            self._audit.request_issued(request)
        self.queue.push(request)
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()
        return request.done

    def read(self, lbn: int, nbytes: int) -> Event:
        return self.submit("read", lbn, nbytes)

    def write(self, lbn: int, nbytes: int) -> Event:
        return self.submit("write", lbn, nbytes)

    def utilization(self) -> float:
        """Fraction of time spent on media work so far."""
        if self.sim.now <= 0:
            return 0.0
        return self.busy.total() / self.sim.now

    # -- fault handling ------------------------------------------------------
    def _failure(self) -> DriveFailed:
        return DriveFailed(self.name)

    def _refuse(self) -> Event:
        """A pre-failed, pre-defused completion event for a dead drive."""
        done = Event(self.sim)
        done.fail(self._failure())
        # Defused up front: a waiter that yields the event still sees the
        # exception (the resume path re-raises it), but a request nobody
        # ends up waiting on cannot abort the whole simulation.
        done._defused = True
        if self.faults is not None:
            self.faults.note("faults.disk.rejected_requests")
        if self._audit is not None:
            self._audit.request_refused()
        return done

    def _on_drive_failure(self, _spec) -> None:
        """Push callback from the injector: the whole spindle dies now."""
        self.failed = True
        self._dirty.clear()
        self._dirty_bytes = 0
        port = self.faults
        port.note("faults.disk.failures")
        dropped = self.queue.drain()
        for request in dropped:
            request.done._defused = True  # see _refuse
            request.done.fail(self._failure())
            if self._audit is not None:
                self._audit.request_failed(request)
        if dropped:
            port.note("faults.disk.dropped_requests", len(dropped))
        tel = self.sim.telemetry
        if tel.enabled:
            tel.spans.instant("fault", "drive-failure", self._track,
                              args={"dropped": len(dropped)})

    def _media_recovery(self, fault, op: str):
        """Charge read-retry revolutions (and a remap) for a bad sector."""
        port = self.faults
        port.consume(fault)
        if op == "write":
            # Overwriting the marginal sector rewrites (or revectors) it;
            # no retries needed on the write path.
            port.note("faults.disk.media_cleared")
            return
        retries = int(fault.magnitude) or DEFAULT_READ_RETRIES
        penalty = retries * self.spec.revolution_time
        if fault.kind == "latent_sector_error":
            # Revector to a spare sector: one track switch plus the
            # rotational delay of landing on the spare.
            penalty += self.spec.seek_track_to_track + self.spec.revolution_time
            port.note("faults.disk.remaps")
        began = self.sim.now
        yield self.sim.pause(penalty)
        self.busy.charge("recovery", penalty)
        port.note("faults.disk.media_errors")
        port.note("faults.disk.read_retries", retries)
        tel = self.sim.telemetry
        if tel.enabled:
            tel.spans.complete("disk", "media-recovery", self._track,
                               began, penalty,
                               args={"lbn": fault.lbn, "kind": fault.kind})

    # -- service loop --------------------------------------------------------
    def _service_loop(self):
        while True:
            while not len(self.queue):
                if self._dirty:
                    # Idle time: destage one buffered write to media.
                    yield from self._flush_one()
                    continue
                self._wakeup = Event(self.sim)
                yield self._wakeup
                self._wakeup = None
            request = self.queue.pop_next(self.current_cylinder)
            yield from self._service(request)

    def _flush_one(self):
        """Destage the oldest dirty extent (write-back policy)."""
        lbn, nbytes = self._dirty.popleft()
        self._dirty_bytes -= nbytes
        yield from self._media_work("write", lbn, nbytes)

    def _media_work(self, op: str, lbn: int, nbytes: int):
        """Positioning + transfer for one extent, cache-aware."""
        sim = self.sim
        tel = self._telemetry
        sectors = ceil(nbytes / self._sector_bytes)
        outcome = self.cache.lookup(op, lbn, lbn + sectors)
        write = op == "write"
        if outcome.buffer_hit:
            if tel.enabled:
                tel.spans.instant("disk", "cache-hit", self._track,
                                  args={"lbn": lbn, "nbytes": nbytes})
                tel.registry.counter(f"{self._track}.cache.hits").add()
            return
        # Limp mode: an active drive_slowdown fault stretches every
        # mechanical delay by its factor.
        fp = self.faults
        slow = fp.factor() if fp is not None and fp.active else 1.0
        if not (outcome.streaming and self.head_lbn == lbn):
            seek, rotation, cylinder = self.mechanics.positioning_parts(
                sim.now, self.current_cylinder, lbn, write)
            delay = seek + rotation
            if slow != 1.0:
                delay *= slow
                seek *= slow
            began = sim.now
            if delay > 0:
                yield sim.pause(delay)
            self.busy.charge("seek", seek)
            self.busy.charge("rotate", delay - seek)
            if tel.enabled and delay > 0:
                if seek > 0:
                    tel.spans.complete("disk", "seek", self._track,
                                       began, seek)
                if delay - seek > 0:
                    tel.spans.complete("disk", "rotate", self._track,
                                       began + seek, delay - seek)
            self.current_cylinder = cylinder
        transfer = self.mechanics.transfer_time(lbn, nbytes)
        if slow != 1.0:
            transfer *= slow
        began = sim.now
        if transfer > 0:
            yield sim.pause(transfer)
        self.busy.charge("transfer", transfer)
        if tel.enabled and transfer > 0:
            tel.spans.complete("disk", op, self._track, began, transfer,
                               args={"nbytes": nbytes})
        if fp is not None and fp.active:
            hit = fp.media_hit(lbn, sectors)
            if hit is not None:
                yield from self._media_recovery(hit, op)
        end = lbn + sectors
        self.current_cylinder = self.geometry.cylinder_of_lbn(end - 1)
        self.head_lbn = end

    def _service(self, request: DiskRequest):
        spec = self.spec
        if spec.controller_overhead > 0:
            yield self.sim.pause(spec.controller_overhead)
            self.busy.charge("overhead", spec.controller_overhead)

        write = request.op == "write"
        if write and self.write_policy == "back":
            # Buffer the write; destage lazily. Once dirty data would
            # overflow the buffer the writer waits for destaging —
            # write-back hides latency, never sustained throughput.
            while (self._dirty
                   and self._dirty_bytes + request.nbytes
                   > self.spec.cache_bytes):
                yield from self._flush_one()
            self._dirty.append((request.lbn, request.nbytes))
            self._dirty_bytes += request.nbytes
        else:
            # A tracked stream only avoids positioning when the head is
            # still parked at the continuation point; interleaved streams
            # (read + write zones, many merge runs) move it away and pay
            # a seek + rotational wait per switch (see _media_work).
            yield from self._media_work(request.op, request.lbn,
                                        request.nbytes)

        if write:
            self.bytes_written += request.nbytes
        else:
            self.bytes_read += request.nbytes
        tel = self._telemetry
        if tel.enabled:
            tel.registry.histogram(f"{self._track}.response").observe(
                self.sim.now - request.issued_at)
            tel.registry.counter(
                f"{self._track}.bytes.{request.op}").add(request.nbytes)
        if self._audit is not None:
            self._audit.request_completed(request)
        request.done.succeed(request)
