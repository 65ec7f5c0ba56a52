"""The invariant-auditing hub and its per-component auditors.

Mirrors the telemetry/faults install pattern: every :class:`Simulator`
carries ``sim.invariants = NULL_INVARIANTS`` (a shared do-nothing
singleton) until a real :class:`InvariantAuditor` is installed. Hot
components cache either ``None`` or a live per-component auditor at
construction time, so the disarmed cost at every probe site is one
attribute load and a branch — and the armed auditors only *observe*
(no events, no processes, no clock interaction), so an armed run is
bit-identical to a disarmed one.

Auditor catalog (see ``docs/INVARIANTS.md``):

* kernel — clock monotonicity + event-heap sanity
  (:meth:`InvariantAuditor.kernel_event`, called by ``Simulator.step``)
* :class:`DriveAuditor` — request lifecycle + media byte conservation
* :class:`MachineAuditor` — phase input/shuffle/frontend byte ledgers
* :class:`MemoryAuditor` — DiskOS static-budget enforcement
* :class:`BusAuditor` — interconnect transfer lifecycle + byte ledger
* resource sweep — ``Server`` occupancy/queue/utilization bounds and
  stream-buffer occupancy, checked periodically and at end of run
"""

from __future__ import annotations

import sys
from typing import Any, Dict, List

from .errors import InvariantViolation

__all__ = [
    "InvariantAuditor", "NullInvariants", "NULL_INVARIANTS",
    "DriveAuditor", "MachineAuditor", "MemoryAuditor", "BusAuditor",
]

#: Float slack for utilization comparisons (busy-time rounding).
UTIL_EPS = 1e-9


class NullInvariants:
    """Do-nothing stand-in wired into every Simulator by default."""

    enabled = False

    def install(self, sim) -> "NullInvariants":
        sim.invariants = self
        return self


#: Shared disarmed singleton (never mutated).
NULL_INVARIANTS = NullInvariants()


class DriveAuditor:
    """Request lifecycle + media byte conservation for one drive.

    Every request submitted to the drive must complete exactly once or
    fail via a declared fault path (drive death drains the queue; a dead
    drive refuses new submissions). The drive's ``bytes_read`` /
    ``bytes_written`` tallies must equal the sum over completed requests
    — a dropped or duplicated chunk breaks that ledger.
    """

    def __init__(self, hub: "InvariantAuditor", drive: Any):
        self.hub = hub
        self.drive = drive
        self.component = f"drive.{drive.name}"
        self.issued = 0
        self.completed = 0
        self.failed = 0
        self.refused = 0
        self.read_bytes = 0
        self.write_bytes = 0
        self._inflight: Dict[int, Any] = {}

    def request_issued(self, request: Any) -> None:
        self.issued += 1
        self._inflight[id(request)] = request
        self.hub.note("invariants.drive.issued")

    def request_completed(self, request: Any) -> None:
        if self._inflight.pop(id(request), None) is None:
            self.hub.fail(
                self.component, "request-lifecycle",
                expected="each issued request completes exactly once",
                observed=f"extra completion for {request.op} "
                         f"lbn={request.lbn} nbytes={request.nbytes}",
                detail="double completion, or completion without submit")
        self.completed += 1
        if request.op == "read":
            self.read_bytes += request.nbytes
        else:
            self.write_bytes += request.nbytes

    def request_failed(self, request: Any) -> None:
        if self._inflight.pop(id(request), None) is None:
            self.hub.fail(
                self.component, "request-lifecycle",
                expected="only in-flight requests can fail",
                observed=f"failure for {request.op} lbn={request.lbn} "
                         "that was never issued",
                detail="fault path fired for an unknown request")
        self.failed += 1
        self.hub.note("invariants.drive.failed")

    def request_refused(self) -> None:
        # A dead drive refusing a submit is a declared fault path; the
        # request never entered the in-flight ledger.
        self.refused += 1
        self.hub.note("invariants.drive.refused")

    def final_check(self, quiesced: bool) -> None:
        if self.drive.bytes_read != self.read_bytes:
            self.hub.fail(
                self.component, "byte-conservation",
                expected={"bytes_read": self.read_bytes},
                observed={"bytes_read": self.drive.bytes_read},
                detail=f"{self.completed} completed requests account for "
                       f"{self.read_bytes} media read bytes")
        if self.drive.bytes_written != self.write_bytes:
            self.hub.fail(
                self.component, "byte-conservation",
                expected={"bytes_written": self.write_bytes},
                observed={"bytes_written": self.drive.bytes_written},
                detail=f"{self.completed} completed requests account for "
                       f"{self.write_bytes} media written bytes")
        if quiesced and self._inflight:
            stuck = [f"{r.op} lbn={r.lbn}"
                     for r in list(self._inflight.values())[:4]]
            self.hub.fail(
                self.component, "request-lifecycle",
                expected="no requests in flight once the simulation drains",
                observed=f"{len(self._inflight)} still in flight",
                detail=", ".join(stuck))


class _PhaseLedger:
    __slots__ = ("processed", "shuffle_sent", "shuffle_delivered",
                 "frontend_sent", "fixed_shuffle", "fixed_frontend",
                 "loops", "closed")

    def __init__(self) -> None:
        self.processed = 0
        self.shuffle_sent = 0
        self.shuffle_delivered = 0
        self.frontend_sent = 0
        self.fixed_shuffle = 0
        self.fixed_frontend = 0
        self.loops = 0
        self.closed = False


class MachineAuditor:
    """Byte conservation through a machine's phase dataflow.

    Per phase: every input byte is processed exactly once (including
    survivor re-scan rounds after a drive failure), shuffle bytes sent
    equal shuffle bytes delivered, and stream outputs match the
    :class:`~repro.workloads.program.StreamSpec` fractions to within the
    Dribble apportioning tolerance (one byte per emitting loop).
    """

    def __init__(self, hub: "InvariantAuditor", machine: Any):
        self.hub = hub
        self.machine = machine
        self.component = f"arch.{machine.arch}"
        self.phases: Dict[str, _PhaseLedger] = {}
        self.total_shuffle_sent = 0
        self.total_shuffle_delivered = 0
        self.total_frontend_sent = 0

    def _ledger(self, phase: Any) -> _PhaseLedger:
        ledger = self.phases.get(phase.name)
        if ledger is None:
            ledger = self.phases[phase.name] = _PhaseLedger()
        return ledger

    def loop_started(self, phase: Any) -> None:
        self._ledger(phase).loops += 1

    def processed(self, phase: Any, nbytes: int) -> None:
        self._ledger(phase).processed += nbytes

    def sent_shuffle(self, phase: Any, nbytes: int) -> None:
        self._ledger(phase).shuffle_sent += nbytes
        self.total_shuffle_sent += nbytes

    def sent_frontend(self, phase: Any, nbytes: int) -> None:
        self._ledger(phase).frontend_sent += nbytes
        self.total_frontend_sent += nbytes

    def fixed_shuffle(self, phase: Any, nbytes: int) -> None:
        self._ledger(phase).fixed_shuffle += nbytes

    def fixed_frontend(self, phase: Any, nbytes: int) -> None:
        self._ledger(phase).fixed_frontend += nbytes

    def delivered_shuffle(self, phase: Any, nbytes: int) -> None:
        self._ledger(phase).shuffle_delivered += nbytes
        self.total_shuffle_delivered += nbytes

    def phase_finished(self, phase: Any) -> None:
        ledger = self._ledger(phase)
        ledger.closed = True
        where = f"{self.component}.phase.{phase.name}"
        expected_in = phase.read_bytes_total
        if ledger.processed != expected_in:
            self.hub.fail(
                where, "input-conservation",
                expected={"processed_bytes": expected_in},
                observed={"processed_bytes": ledger.processed},
                detail="every media byte must be processed exactly once, "
                       "including degraded-mode re-scan rounds")
        if ledger.shuffle_delivered != ledger.shuffle_sent:
            self.hub.fail(
                where, "shuffle-conservation",
                expected={"delivered_bytes": ledger.shuffle_sent},
                observed={"delivered_bytes": ledger.shuffle_delivered},
                detail="every shuffled byte sent must be received by a "
                       "peer exactly once")
        tolerance = ledger.loops + 1
        self._check_fraction(where, "shuffle-fraction",
                             phase.shuffle_fraction, ledger.processed,
                             ledger.fixed_shuffle, ledger.shuffle_sent,
                             tolerance)
        self._check_fraction(where, "frontend-fraction",
                             phase.frontend_fraction, ledger.processed,
                             ledger.fixed_frontend, ledger.frontend_sent,
                             tolerance)
        self.hub.note("invariants.phase_audits")

    def _check_fraction(self, where: str, invariant: str, fraction: float,
                        processed: int, fixed: int, sent: int,
                        tolerance: int) -> None:
        expected = fraction * processed + fixed
        if abs(sent - expected) > tolerance:
            self.hub.fail(
                where, invariant,
                expected={"stream_bytes": expected,
                          "tolerance_bytes": tolerance},
                observed={"stream_bytes": sent},
                detail=f"StreamSpec fraction {fraction!r} of "
                       f"{processed} processed bytes plus {fixed} fixed "
                       "bytes")

    def final_check(self, quiesced: bool) -> None:
        if not quiesced:
            return
        if self.total_shuffle_delivered != self.total_shuffle_sent:
            self.hub.fail(
                self.component, "shuffle-conservation",
                expected={"delivered_bytes": self.total_shuffle_sent},
                observed={"delivered_bytes": self.total_shuffle_delivered},
                detail="machine-wide shuffle ledger")
        observed_fe = self.machine._frontend_bytes_observed()
        if observed_fe is not None and observed_fe != self.total_frontend_sent:
            self.hub.fail(
                self.component, "frontend-conservation",
                expected={"frontend_bytes": self.total_frontend_sent},
                observed={"frontend_bytes": observed_fe},
                detail="bytes received at the front end must equal bytes "
                       "sent to it")


class MemoryAuditor:
    """Static-budget ledger (DiskOS forbids runtime allocation).

    Reservations must never exceed the budget carved out by
    :class:`~repro.diskos.memory.MemoryLayout`, and releases must never
    exceed reservations.
    """

    def __init__(self, hub: "InvariantAuditor", component: str,
                 limit_bytes: int):
        self.hub = hub
        self.component = component
        self.limit = limit_bytes
        self.in_use = 0
        self.high_water = 0

    def reserve(self, nbytes: int, what: str = "") -> None:
        self.in_use += nbytes
        if self.in_use > self.high_water:
            self.high_water = self.in_use
        if self.in_use > self.limit:
            self.hub.fail(
                self.component, "memory-budget",
                expected={"limit_bytes": self.limit},
                observed={"reserved_bytes": self.in_use},
                detail=what or "DiskOS forbids allocating beyond the "
                               "static memory layout at runtime")

    def release(self, nbytes: int, what: str = "") -> None:
        self.in_use -= nbytes
        if self.in_use < 0:
            self.hub.fail(
                self.component, "memory-budget",
                expected="releases never exceed reservations",
                observed={"reserved_bytes": self.in_use},
                detail=what)


class BusAuditor:
    """Transfer lifecycle + byte ledger for one interconnect resource."""

    def __init__(self, hub: "InvariantAuditor", component: str,
                 moved: Any = None):
        self.hub = hub
        self.component = component
        self._moved = moved  # optional callable: bus's own byte counter
        self.open = 0
        self.transfers = 0
        self.started_bytes = 0
        self.finished_bytes = 0

    def begin(self, nbytes: int) -> None:
        if nbytes < 0:
            self.hub.fail(
                self.component, "transfer-size",
                expected="transfer sizes are non-negative",
                observed=nbytes)
        self.open += 1
        self.transfers += 1
        self.started_bytes += nbytes

    def end(self, nbytes: int) -> None:
        self.open -= 1
        self.finished_bytes += nbytes
        if self.open < 0:
            self.hub.fail(
                self.component, "transfer-lifecycle",
                expected="every completion matches exactly one begin",
                observed={"open_transfers": self.open})

    def final_check(self, quiesced: bool) -> None:
        if not quiesced:
            return
        if self.open:
            self.hub.fail(
                self.component, "transfer-lifecycle",
                expected="no transfers in flight once the simulation "
                         "drains",
                observed={"open_transfers": self.open})
        if self.finished_bytes != self.started_bytes:
            self.hub.fail(
                self.component, "byte-conservation",
                expected={"finished_bytes": self.started_bytes},
                observed={"finished_bytes": self.finished_bytes})
        if self._moved is not None:
            moved = self._moved()
            if moved != self.finished_bytes:
                self.hub.fail(
                    self.component, "byte-accounting",
                    expected={"bytes_moved": self.finished_bytes},
                    observed={"bytes_moved": moved},
                    detail="the bus's own byte counter disagrees with "
                           "the transfer ledger")


class InvariantAuditor:
    """The armed hub: registry of component auditors + periodic sweeps.

    Install on a simulator *before* building the machine::

        auditor = InvariantAuditor()
        sim = Simulator()
        auditor.install(sim)
        machine = build_machine(sim, config)   # components self-register
        machine.run()                          # violations raise here

    The hub piggybacks on the simulator: an armed ``run()`` steps every
    event through ``Simulator.step``, which calls :meth:`kernel_event`
    (clock monotonicity, heap sanity, periodic resource sweeps), and
    the ``run_finished`` lifecycle hook settles the final conservation
    ledgers — unless the run is already unwinding with an exception,
    which the final audit must not mask.
    """

    enabled = True

    def __init__(self, period: int = 2048):
        self.period = max(1, int(period))
        self._stride = 0
        self.sim: Any = None
        self.counters: Dict[str, int] = {}
        self.violations: List[InvariantViolation] = []
        self._servers: List[Any] = []
        self._probes: List[Any] = []
        self._drives: List[DriveAuditor] = []
        self._machines: List[MachineAuditor] = []
        self._memories: List[MemoryAuditor] = []
        self._buses: List[BusAuditor] = []

    # ----------------------------------------------------------- install
    def install(self, sim: Any) -> "InvariantAuditor":
        if self.sim is not None and self.sim is not sim:
            raise RuntimeError(
                "InvariantAuditor is already installed on another simulator")
        self.sim = sim
        sim.invariants = self
        sim.add_hook(self)
        return self

    @property
    def now(self) -> float:
        return self.sim.now if self.sim is not None else 0.0

    # ---------------------------------------------------------- plumbing
    def note(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount
        sim = self.sim
        if sim is not None and sim.telemetry.enabled:
            sim.telemetry.registry.counter(name).add(amount)

    def fail(self, component: str, invariant: str, expected: Any,
             observed: Any, detail: str = "") -> None:
        """Record and raise an :class:`InvariantViolation`."""
        violation = InvariantViolation(component, invariant, self.now,
                                       expected, observed, detail)
        self.violations.append(violation)
        self.note("invariants.violations")
        raise violation

    # ------------------------------------------------------ registration
    def watch_server(self, server: Any) -> None:
        self._servers.append(server)
        self.note("invariants.watched.servers")

    def watch_probe(self, probe: Any) -> None:
        self._probes.append(probe)
        self.note("invariants.watched.buffers")

    def drive_auditor(self, drive: Any) -> DriveAuditor:
        auditor = DriveAuditor(self, drive)
        self._drives.append(auditor)
        return auditor

    def machine_auditor(self, machine: Any) -> MachineAuditor:
        auditor = MachineAuditor(self, machine)
        self._machines.append(auditor)
        return auditor

    def memory_auditor(self, component: str,
                       limit_bytes: int) -> MemoryAuditor:
        auditor = MemoryAuditor(self, component, limit_bytes)
        self._memories.append(auditor)
        return auditor

    def bus_auditor(self, component: str, moved: Any = None) -> BusAuditor:
        auditor = BusAuditor(self, component, moved)
        self._buses.append(auditor)
        return auditor

    # ------------------------------------------------------------ sweeps
    def sweep(self) -> None:
        """Bounds checks over every watched resource (cheap, frequent)."""
        self.note("invariants.sweeps")
        for server in self._servers:
            self._check_server(server)
        for probe in self._probes:
            if not 0 <= probe.held <= probe.capacity:
                self.fail(
                    f"buffer.{probe.name}", "occupancy-bounds",
                    expected=f"0 <= held <= {probe.capacity}",
                    observed=probe.held,
                    detail="stream buffers are a fixed pool carved from "
                           "the DiskOS memory layout")
        for memory in self._memories:
            if not 0 <= memory.in_use <= memory.limit:
                self.fail(
                    memory.component, "memory-budget",
                    expected=f"0 <= reserved <= {memory.limit}",
                    observed=memory.in_use)

    def _check_server(self, server: Any) -> None:
        where = f"server.{server.name or 'anonymous'}"
        if not 0 <= server.in_use <= server.capacity:
            self.fail(
                where, "occupancy-bounds",
                expected=f"0 <= in_use <= {server.capacity}",
                observed=server.in_use)
        if server.queue_length < 0:
            self.fail(where, "queue-length",
                      expected="queue length is non-negative",
                      observed=server.queue_length)
        utilization = server.utilization()
        if not 0.0 <= utilization <= 1.0 + UTIL_EPS:
            self.fail(
                where, "utilization-bound",
                expected="0 <= utilization <= 1",
                observed=utilization,
                detail=f"busy {server.busy_time()!r}s of {self.now!r}s")

    # ----------------------------------------------------- kernel hooks
    def kernel_event(self, when: float, event: Any) -> None:
        """Audit one event the kernel just popped, before it dispatches.

        A queued event timestamped before the clock is a kernel-protocol
        breach; a popped event whose callbacks are already gone was
        scheduled twice. Every ``period`` events the resource bounds
        are swept too.
        """
        now = self.sim.now
        if when < now:
            self.fail(
                "sim.kernel", "clock-monotonicity",
                expected=f"next event at or after t={now!r}",
                observed=f"event scheduled at t={when!r}",
                detail="event scheduled in the past")
        if event.callbacks is None:
            self.fail(
                "sim.kernel", "event-heap",
                expected="every queued event is unprocessed",
                observed=f"already-processed {event!r} queued "
                         f"for t={when!r}",
                detail="an event was scheduled twice")
        self._stride += 1
        if self._stride >= self.period:
            self._stride = 0
            self.sweep()

    def run_started(self, sim: Any) -> None:  # lifecycle-hook protocol
        self._stride = 0
        self.note("invariants.runs")

    def run_finished(self, sim: Any) -> None:
        if sys.exc_info()[0] is not None:
            # The run is already unwinding (possibly with our own
            # violation); a final audit of the aborted state would only
            # mask the original error.
            return
        self.note("invariants.final_audits")
        quiesced = not sim._queue
        self.sweep()
        for drive in self._drives:
            drive.final_check(quiesced)
        for bus in self._buses:
            bus.final_check(quiesced)
        for machine in self._machines:
            machine.final_check(quiesced)
