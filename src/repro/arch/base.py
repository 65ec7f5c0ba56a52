"""Machine base: the shared phase-execution engine and result types.

All three machines execute :class:`~repro.arch.program.TaskProgram`\\ s with
the same skeleton — per-phase worker processes that pipeline block reads,
charge labelled CPU costs, and route output bytes — and differ only in
*which resources* each step touches. The hooks a machine implements:

``read_block``     local/striped read of one request, including any buses
``write_block``    local/striped write of one request
``worker_cpu``     the :class:`~repro.host.Cpu` executing worker ``w``
``send_shuffle``   deliver a repartitioned batch to a peer worker
``send_frontend``  deliver a result batch to the front-end

Time accounting: every CPU charge lands in a labelled bucket prefixed by
the phase name, and :meth:`Machine.run` snapshots the buckets at phase
boundaries — so per-phase busy/idle breakdowns (the paper's Figure 3)
fall out without task-specific instrumentation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..faults.errors import FaultError
from ..host import Cpu
from ..sim import Event, Simulator
from .config import ArchConfig
from .program import Phase, TaskProgram

__all__ = ["Dribble", "WorkLatch", "PhaseResult", "RunResult", "Machine",
           "destination_cycle"]


class _RecoveryPool:
    """Input bytes orphaned by failed workers during one phase.

    A worker that dies deposits its unprocessed share (plus any fixed
    output tail it never emitted); surviving workers claim the bytes in
    block-sized chunks during the post-barrier recovery rounds and
    re-scan them from their own replicas.
    """

    def __init__(self) -> None:
        self.lost_bytes = 0
        self.fixed_shuffle = 0
        self.fixed_frontend = 0
        self.failed: set = set()

    def worker_down(self, w: int) -> None:
        self.failed.add(w)

    def deposit(self, nbytes: int) -> None:
        self.lost_bytes += nbytes

    def claim(self, maxbytes: int) -> int:
        take = min(maxbytes, self.lost_bytes)
        self.lost_bytes -= take
        return take

    def pending(self) -> bool:
        return (self.lost_bytes > 0 or self.fixed_shuffle > 0
                or self.fixed_frontend > 0)


def _prefix_phase(phase: Phase, prefix: str) -> Phase:
    """A copy of ``phase`` with a namespaced name (concurrent runs)."""
    from dataclasses import replace
    return replace(phase, name=f"{prefix}:{phase.name}")


class Dribble:
    """Exact cumulative apportioning of a byte fraction.

    ``take(n)`` returns the integral number of output bytes owed after
    ``n`` more input bytes, such that the running total never drifts from
    ``fraction * input`` by more than one byte.
    """

    def __init__(self, fraction: float):
        if fraction < 0:
            raise ValueError(f"negative fraction: {fraction}")
        self.fraction = fraction
        self.taken_in = 0
        self.given_out = 0

    def take(self, nbytes: int) -> int:
        self.taken_in += nbytes
        owed = int(self.fraction * self.taken_in) - self.given_out
        self.given_out += owed
        return owed


def destination_cycle(workers: int, skew: float, start: int,
                      cycle_factor: int = 4) -> List[int]:
    """Deterministic shuffle-destination schedule.

    With ``skew == 0`` this is a plain rotation starting after ``start``
    (the uniform spread of the paper's datasets). With ``skew > 0`` the
    schedule approximates a Zipf(``skew``) distribution over workers —
    worker 0 owns the hottest partition — using largest-remainder
    apportionment over a cycle of ``workers * cycle_factor`` slots, with
    destinations interleaved so hot receivers are hit steadily rather
    than in bursts. Deterministic by construction, so simulations stay
    reproducible.
    """
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if workers == 1:
        return [0]
    if skew <= 0:
        return [(start + 1 + i) % workers for i in range(workers)]
    weights = [1.0 / (d + 1) ** skew for d in range(workers)]
    total = sum(weights)
    length = workers * cycle_factor
    quotas = [w / total * length for w in weights]
    counts = [int(q) for q in quotas]
    shortfall = length - sum(counts)
    by_remainder = sorted(range(workers),
                          key=lambda d: quotas[d] - counts[d], reverse=True)
    for d in by_remainder[:shortfall]:
        counts[d] += 1
    # Spread each destination's occurrences evenly over the cycle so the
    # hot receiver is hit steadily rather than in a burst at the end.
    slots = []
    for d in range(workers):
        for i in range(counts[d]):
            slots.append(((i + 0.5) / counts[d], d))
    slots.sort()
    return [d for _, d in slots]


class WorkLatch:
    """Counts in-flight asynchronous work; lets a phase wait for drain."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.open = 0
        self._waiter: Optional[Event] = None

    def begin(self) -> None:
        self.open += 1

    def done(self) -> None:
        if self.open <= 0:
            raise RuntimeError("WorkLatch.done() without begin()")
        self.open -= 1
        if self.open == 0 and self._waiter is not None:
            waiter, self._waiter = self._waiter, None
            waiter.succeed()

    def drained(self) -> Generator[Event, Any, None]:
        while self.open > 0:
            if self._waiter is None:
                self._waiter = Event(self.sim)
            yield self._waiter


@dataclass
class PhaseResult:
    """Timing and busy breakdown of one executed phase."""

    name: str
    elapsed: float
    workers: int
    busy: Dict[str, float]          # label -> aggregate busy seconds

    @property
    def worker_seconds(self) -> float:
        return self.elapsed * self.workers

    @property
    def busy_total(self) -> float:
        return sum(self.busy.values())

    @property
    def idle(self) -> float:
        """Aggregate worker-CPU idle time during the phase."""
        return max(0.0, self.worker_seconds - self.busy_total)

    def fractions(self) -> Dict[str, float]:
        """Breakdown including idle, as fractions of worker-seconds."""
        if self.worker_seconds <= 0:
            return {}
        out = {k: v / self.worker_seconds for k, v in self.busy.items()}
        out["idle"] = self.idle / self.worker_seconds
        return out


@dataclass
class RunResult:
    """Outcome of running one task program on one machine."""

    task: str
    arch: str
    num_disks: int
    elapsed: float
    phases: List[PhaseResult]
    extras: Dict[str, float] = field(default_factory=dict)

    def phase(self, name: str) -> PhaseResult:
        for result in self.phases:
            if result.name == name:
                return result
        raise KeyError(f"no phase named {name!r} in {self.task} run")


class Machine(ABC):
    """Shared phase-execution engine. Subclasses wire the resources."""

    arch = "abstract"

    def __init__(self, sim: Simulator, config: ArchConfig):
        self.sim = sim
        self.config = config
        self._phase_results: List[PhaseResult] = []
        self._recovery_pools: Dict[str, _RecoveryPool] = {}
        # Invariant auditor: None unless armed, so every probe site in
        # the worker loops pays one load and a branch when disarmed.
        # Armed, it keeps per-phase byte ledgers (input processed,
        # shuffle sent/delivered, stream fractions) that are settled at
        # each phase boundary and at end of run.
        self._audit = None
        if sim.invariants.enabled:
            self._audit = sim.invariants.machine_auditor(self)

    # -- hooks ----------------------------------------------------------------
    @property
    @abstractmethod
    def worker_count(self) -> int:
        """Workers executing phases (disks / nodes / processors)."""

    @abstractmethod
    def worker_cpu(self, w: int) -> Cpu:
        """The CPU that runs worker ``w``."""

    @abstractmethod
    def read_block(self, phase: Phase, w: int, nbytes: int,
                   stream: int) -> Generator[Event, Any, None]:
        """Read one request of ``nbytes`` from worker ``w``'s input."""

    @abstractmethod
    def write_block(self, phase: Phase, w: int,
                    nbytes: int) -> Generator[Event, Any, None]:
        """Write one request of ``nbytes`` from worker ``w``."""

    @abstractmethod
    def send_shuffle(self, phase: Phase, w: int, dst: int, nbytes: int,
                     latch: WorkLatch) -> None:
        """Asynchronously repartition ``nbytes`` from ``w`` to ``dst``."""

    @abstractmethod
    def send_frontend(self, phase: Phase, w: int, nbytes: int,
                      latch: WorkLatch) -> None:
        """Asynchronously deliver ``nbytes`` from ``w`` to the front-end."""

    def collect_extras(self) -> Dict[str, float]:
        """Machine-specific counters for :attr:`RunResult.extras`."""
        return {}

    def _frontend_bytes_observed(self) -> Optional[int]:
        """Front-end byte counter for the armed conservation audit.

        ``None`` (the default) skips the frontend ledger check;
        machines with a front-end counter override this.
        """
        return None

    def _audit_scratch(self, phase: Phase, active: bool) -> None:
        """Armed-only notification that ``phase``'s scratch is (de)allocated.

        The Active Disk machine overrides this to charge each node's
        DiskOS scratch ledger; hosts with virtual memory have no static
        budget to enforce.
        """

    def phase_barrier(self) -> Generator[Event, Any, None]:
        """Global synchronization cost charged between phases.

        Machines override this with their synchronization primitive's
        latency (MPI barrier on the cluster, NUMA barrier on the SMP,
        front-end coordination round on Active Disks). The default is
        free.
        """
        return
        yield  # pragma: no cover - makes this a generator

    # -- helpers shared by subclasses ------------------------------------------
    def charge_cpu(self, cpu: Cpu, phase: Phase, components, nbytes: int
                   ) -> Generator[Event, Any, None]:
        """Charge each labelled cost for ``nbytes`` on ``cpu``."""
        for component in components:
            cost = component.ns_per_byte * 1e-9 * nbytes
            if cost > 0:
                yield from cpu.compute(
                    cost, bucket=f"{phase.name}:{component.label}")

    def recv_work(self, phase: Phase, dst: int, nbytes: int
                  ) -> Generator[Event, Any, None]:
        """Receiver-side CPU + write for a delivered shuffle batch."""
        if self._audit is not None:
            self._audit.delivered_shuffle(phase, nbytes)
        yield from self.charge_cpu(
            self.worker_cpu(dst), phase, phase.recv, nbytes)
        to_write = int(nbytes * phase.recv_write_fraction)
        if to_write > 0:
            try:
                yield from self.write_block(phase, dst, to_write)
            except FaultError:
                self._lost_write(to_write)

    def _lost_write(self, nbytes: int) -> None:
        """Account output bytes dropped because the target device died.

        Locally-written run data is an intermediate the model does not
        replay; a write refused by a failed drive is counted rather than
        re-routed (the re-scan of the failed drive's *input* partition is
        what recovery replays).
        """
        self.sim.faults.note("faults.arch.lost_write_bytes", nbytes)

    # -- the engine -------------------------------------------------------------
    def run(self, program: TaskProgram) -> RunResult:
        """Execute ``program`` to completion and return the results."""
        self._phase_results = []
        self._finished_at: Optional[float] = None
        driver = self.sim.process(self._run_program(program), name="driver")
        self.sim.run()
        if not driver.triggered or not driver.ok:
            raise RuntimeError(
                f"{self.arch}/{program.task}: program did not complete")
        # Prefer the program's own completion time: an armed fault plan
        # may still deliver events after the program ends, advancing
        # sim.now past the interesting part.
        elapsed = (self._finished_at if self._finished_at is not None
                   else self.sim.now)
        return RunResult(
            task=program.task,
            arch=self.arch,
            num_disks=self.config.num_disks,
            elapsed=elapsed,
            phases=self._phase_results,
            extras=self.collect_extras(),
        )

    def run_concurrent(self, programs: List[TaskProgram]) -> List[RunResult]:
        """Execute several programs at once on this machine.

        Models a mixed decision-support workload: the programs contend
        for every resource (media, CPUs, interconnect, front-end). Each
        result's ``elapsed`` is that program's own completion time;
        phase buckets are kept separate by prefixing each program's
        phases with its task name.

        A machine instance is still single-use: build a fresh one per
        call.
        """
        if not programs:
            raise ValueError("run_concurrent needs at least one program")
        completion: Dict[int, float] = {}
        results_by_program: Dict[int, List[PhaseResult]] = {}

        def driver(index: int, program: TaskProgram):
            prefixed = TaskProgram(
                task=program.task,
                phases=tuple(
                    _prefix_phase(phase, f"{program.task}#{index}")
                    for phase in program.phases))
            own_results: List[PhaseResult] = []
            results_by_program[index] = own_results
            yield from self._run_program(prefixed, own_results)
            completion[index] = self.sim.now

        drivers = [
            self.sim.process(driver(i, program), name=f"driver{i}")
            for i, program in enumerate(programs)
        ]
        self.sim.run()
        for process in drivers:
            if not process.triggered or not process.ok:
                raise RuntimeError(
                    f"{self.arch}: concurrent program did not complete")
        return [
            RunResult(
                task=program.task,
                arch=self.arch,
                num_disks=self.config.num_disks,
                elapsed=completion[i],
                phases=results_by_program[i],
                extras=self.collect_extras(),
            )
            for i, program in enumerate(programs)
        ]


    def _busy_snapshot(self) -> Dict[str, float]:
        totals: Dict[str, float] = {}
        for w in range(self.worker_count):
            for label, value in self.worker_cpu(w).busy.buckets.items():
                totals[label] = totals.get(label, 0.0) + value
        return totals

    def _run_program(self, program: TaskProgram,
                     sink: Optional[List[PhaseResult]] = None):
        results = self._phase_results if sink is None else sink
        tel = self.sim.telemetry
        track = f"machine.{self.arch}"
        for phase in program.phases:
            began = self.sim.now
            before = self._busy_snapshot()
            if self._audit is not None:
                self._audit_scratch(phase, active=True)
            latch = WorkLatch(self.sim)
            workers = [
                self.sim.process(self.run_worker(phase, w, latch),
                                 name=f"{phase.name}-w{w}")
                for w in range(self.worker_count)
            ]
            yield self.sim.all_of(workers)
            yield from latch.drained()
            pool = self._recovery_pools.get(phase.name)
            if pool is not None and pool.pending():
                yield from self._recover_phase(phase, latch, pool)
            if self._audit is not None:
                self._audit_scratch(phase, active=False)
                self._audit.phase_finished(phase)
            if tel.enabled:
                tel.spans.instant("phase", f"{phase.name}: barrier", track)
            yield from self.phase_barrier()
            after = self._busy_snapshot()
            prefix = f"{phase.name}:"
            busy = {
                label[len(prefix):]: after[label] - before.get(label, 0.0)
                for label in after if label.startswith(prefix)
            }
            results.append(PhaseResult(
                name=phase.name,
                elapsed=self.sim.now - began,
                workers=self.worker_count,
                busy={k: v for k, v in busy.items() if v > 0},
            ))
            if tel.enabled:
                tel.spans.complete("phase", phase.name, track, began,
                                   self.sim.now - began,
                                   args={"workers": self.worker_count})
        self._finished_at = self.sim.now

    # -- degraded-mode recovery -------------------------------------------------
    def _recover_phase(self, phase: Phase, latch: WorkLatch,
                       pool: _RecoveryPool):
        """Re-scan a failed worker's partition on the survivors.

        Runs after the phase's normal workers finish (and their async
        deliveries drain): the survivors claim the orphaned bytes in
        block-sized chunks and replay read + compute + route for them —
        the declustered-reconstruction model, where every survivor holds
        a replica of a slice of the dead partition. Rounds repeat while
        the pool refills (a survivor can itself die mid-recovery); the
        run only fails when no workers are left.
        """
        sim = self.sim
        tel = sim.telemetry
        began = sim.now
        while pool.pending():
            survivors = [w for w in range(self.worker_count)
                         if w not in pool.failed]
            if not survivors:
                raise RuntimeError(
                    f"{self.arch}/{phase.name}: all workers failed with "
                    f"{pool.lost_bytes} bytes unrecovered")
            sim.faults.note("faults.arch.recovery_rounds")
            emitter = survivors[0]
            recoverers = [
                sim.process(
                    self._recovery_worker(phase, w, latch, pool,
                                          emit_fixed=(w == emitter)),
                    name=f"{phase.name}-rec{w}")
                for w in survivors
            ]
            yield sim.all_of(recoverers)
            yield from latch.drained()
        if tel.enabled:
            tel.spans.complete(
                "recovery", phase.name, f"machine.{self.arch}",
                began, sim.now - began,
                args={"failed_workers": len(pool.failed)})

    def _recovery_worker(self, phase: Phase, w: int, latch: WorkLatch,
                         pool: _RecoveryPool, emit_fixed: bool):
        """One survivor's share of a recovery round.

        ``emit_fixed``: the lowest-indexed survivor also emits the fixed
        output tails the failed workers never sent. The tails are taken
        from the pool up front and re-deposited if this survivor dies
        before flushing them.
        """
        fixed_shuffle = fixed_frontend = 0
        if emit_fixed:
            fixed_shuffle, pool.fixed_shuffle = pool.fixed_shuffle, 0
            fixed_frontend, pool.fixed_frontend = pool.fixed_frontend, 0
        state = {"claimed": 0}

        def claim(maxbytes: int) -> int:
            take = pool.claim(maxbytes)
            state["claimed"] += take
            return take

        def on_failure(lost: int) -> None:
            pool.worker_down(w)
            pool.deposit(lost)
            pool.fixed_shuffle += fixed_shuffle
            pool.fixed_frontend += fixed_frontend
            state["claimed"] -= lost
            self.sim.faults.note("faults.arch.worker_failures")

        yield from self._block_loop(
            phase, w, latch, claim,
            fixed_shuffle=fixed_shuffle,
            fixed_frontend=fixed_frontend,
            on_failure=on_failure)
        self.sim.faults.note("faults.arch.recovered_bytes",
                             state["claimed"])

    def worker_share(self, phase: Phase, w: int) -> int:
        """Bytes worker ``w`` reads in ``phase`` (even split, w-indexed)."""
        total = phase.read_bytes_total
        workers = self.worker_count
        share = total // workers
        if w < total % workers:
            share += 1
        return share

    def _pool_for(self, phase: Phase) -> _RecoveryPool:
        return self._recovery_pools.setdefault(phase.name, _RecoveryPool())

    def run_worker(self, phase: Phase, w: int, latch: WorkLatch):
        """Default pipelined worker loop (AD and cluster; SMP overrides)."""
        total_bytes = self.worker_share(phase, w)
        if (total_bytes <= 0 and phase.frontend_fixed_per_worker <= 0
                and phase.shuffle_fixed_per_worker <= 0):
            return
        state = {"claimed": 0}

        def claim(maxbytes: int) -> int:
            take = min(maxbytes, total_bytes - state["claimed"])
            state["claimed"] += take
            return take

        def on_failure(lost: int) -> None:
            pool = self._pool_for(phase)
            pool.worker_down(w)
            pool.deposit(lost + (total_bytes - state["claimed"]))
            pool.fixed_shuffle += phase.shuffle_fixed_per_worker
            pool.fixed_frontend += phase.frontend_fixed_per_worker
            self.sim.faults.note("faults.arch.worker_failures")

        yield from self._block_loop(
            phase, w, latch, claim,
            fixed_shuffle=phase.shuffle_fixed_per_worker,
            fixed_frontend=phase.frontend_fixed_per_worker,
            on_failure=on_failure)

    def _guard(self, gen):
        """Run an I/O generator, handing a fault back as the value.

        The block loops keep several reads in flight; raising out of a
        reader process would abort the simulation before the worker can
        account the loss, so the guard converts :class:`FaultError` into
        the process's return value (None on success, as before).
        """
        try:
            yield from gen
        except FaultError as exc:
            return exc

    def _read_guard(self, phase: Phase, w: int, nbytes: int, stream: int):
        gen = self.read_block(phase, w, nbytes, stream)
        if not self.sim.faults.enabled:
            return gen
        return self._guard(gen)

    def _block_loop(self, phase: Phase, w: int, latch: WorkLatch, claim,
                    fixed_shuffle: int, fixed_frontend: int,
                    on_failure=None):
        """Pipelined read -> compute -> route loop over a byte source.

        ``claim(maxbytes) -> int`` hands out the next chunk of input (0
        when the source is dry). On a read fault the worker stops
        claiming, drains its in-flight reads (counting their bytes as
        lost), flushes what it already computed, and reports the loss
        through ``on_failure(lost_bytes)`` instead of emitting the fixed
        tails.
        """
        sim = self.sim
        cpu = self.worker_cpu(w)
        block = self.config.io_request_bytes
        depth = self.config.queue_depth
        streams = max(1, phase.read_streams)
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

        pending = deque()
        stream_cursor = 0
        broken = False
        lost = 0

        def top_up():
            nonlocal stream_cursor
            if broken:
                return
            while len(pending) < depth:
                nbytes = claim(block)
                if nbytes <= 0:
                    break
                stream = stream_cursor % streams
                stream_cursor += 1
                reader = sim.process(
                    self._read_guard(phase, w, nbytes, stream),
                    name=f"{phase.name}-r{w}")
                pending.append((reader, nbytes))

        def flush_shuffle(force: bool):
            nonlocal shuffle_pending, dst_index
            while (shuffle_pending >= block
                   or (force and shuffle_pending > 0)):
                batch = min(block, shuffle_pending)
                shuffle_pending -= batch
                dst = destinations[dst_index % len(destinations)]
                dst_index += 1
                if audit is not None:
                    audit.sent_shuffle(phase, batch)
                self.send_shuffle(phase, w, dst, batch, latch)

        def flush_frontend(force: bool):
            nonlocal frontend_pending
            while (frontend_pending >= block
                   or (force and frontend_pending > 0)):
                batch = min(block, frontend_pending)
                frontend_pending -= batch
                if audit is not None:
                    audit.sent_frontend(phase, batch)
                self.send_frontend(phase, w, batch, latch)

        def write_batch(nbytes: int):
            nonlocal lost
            try:
                yield from self.write_block(phase, w, nbytes)
            except FaultError:
                self._lost_write(nbytes)

        top_up()
        while pending:
            reader, nbytes = pending.popleft()
            outcome = yield reader
            if outcome is not None:
                broken = True
                lost += nbytes
                continue
            top_up()
            yield from self.charge_cpu(cpu, phase, phase.cpu, nbytes)
            if audit is not None:
                audit.processed(phase, nbytes)
            shuffle_pending += shuffle.take(nbytes)
            frontend_pending += frontend.take(nbytes)
            write_pending += local_write.take(nbytes)
            flush_shuffle(force=False)
            flush_frontend(force=False)
            while write_pending >= block:
                write_pending -= block
                yield from write_batch(block)
            top_up()

        if broken:
            # Flush what was computed before the fault (the controller
            # survives a media failure), then hand the unread remainder
            # to the phase's recovery pool.
            flush_shuffle(force=True)
            flush_frontend(force=True)
            if write_pending > 0:
                yield from write_batch(write_pending)
            if on_failure is not None:
                on_failure(lost)
            return

        if audit is not None:
            if fixed_shuffle:
                audit.fixed_shuffle(phase, fixed_shuffle)
            if fixed_frontend:
                audit.fixed_frontend(phase, fixed_frontend)
        shuffle_pending += fixed_shuffle
        frontend_pending += fixed_frontend
        flush_shuffle(force=True)
        flush_frontend(force=True)
        if write_pending > 0:
            yield from write_batch(write_pending)
