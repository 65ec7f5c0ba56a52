"""Discrete-event simulation kernel.

This module implements the event-driven core that every Howsim component is
built on: a :class:`Simulator` that owns the virtual clock and the pending
event queue, :class:`Event` objects that processes wait on, and
:class:`Process` coroutines (plain Python generators) that describe the
behaviour of simulated entities (disk arms, CPUs, NICs, disklets, ...).

The design follows the classic process-interaction style (as popularized by
SimPy): a process is a generator that ``yield``-s events; when a yielded
event fires, the kernel resumes the generator, passing the event's value as
the result of the ``yield`` expression.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

import itertools
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "AllOf",
    "AnyOf",
    "Interrupt",
    "SimulationError",
    "SimStalled",
]

_INF = float("inf")


class SimulationError(Exception):
    """Raised for misuse of the simulation kernel."""


class SimStalled(SimulationError):
    """The event queue drained while processes were still waiting.

    Raised by :meth:`Simulator.run` when no event can ever fire again
    but live (non-daemon) processes exist — a deadlock. The ``blocked``
    attribute lists the stuck process names so the failure is
    diagnosable instead of a silent early exit.
    """

    def __init__(self, blocked: List[str]):
        shown = ", ".join(blocked[:8])
        if len(blocked) > 8:
            shown += f", ... ({len(blocked) - 8} more)"
        super().__init__(
            f"simulation stalled: event queue is empty but {len(blocked)} "
            f"process(es) are still waiting: {shown}")
        self.blocked = blocked


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`Process.interrupt`.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A happening that processes can wait for.

    An event starts *untriggered*; calling :meth:`succeed` (or
    :meth:`fail`) schedules it to fire at the current simulation time.
    Once fired, all registered callbacks run, in registration order.

    Attributes
    ----------
    value:
        The payload passed to :meth:`succeed`, delivered to waiting
        processes as the result of their ``yield``.
    """

    __slots__ = ("sim", "callbacks", "value", "_triggered", "_ok",
                 "_defused", "_pooled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Optional[List[Callable[["Event"], None]]] = []
        self.value: Any = None
        self._triggered = False
        self._ok = True
        self._defused = False
        # Pooled events (kernel relays, sim.pause timeouts) are recycled
        # by the fast run loop the moment their callbacks have run.
        self._pooled = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have run."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded (only meaningful once triggered)."""
        return self._ok

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        self._triggered = True
        self.value = value
        sim = self.sim
        sim._push([sim._now, next(sim._counter), self])
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes will see the exception raised at their ``yield``.
        """
        if self._triggered:
            raise SimulationError(f"{self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._triggered = True
        self._ok = False
        self.value = exception
        sim = self.sim
        sim._push([sim._now, next(sim._counter), self])
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event has already been processed the callback runs
        immediately.
        """
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self._triggered else "pending"
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    The constructor inlines :class:`Event`'s field setup and the queue
    push: timeouts are the kernel's single most-allocated object, and
    every sleep in every device model goes through here (or through the
    pooled :meth:`Simulator.pause` variant).
    """

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.sim = sim
        self.callbacks = []
        self.value = value
        self._triggered = True
        self._ok = True
        self._defused = False
        self._pooled = False
        self.delay = delay
        sim._push([sim._now + delay, next(sim._counter), self])


ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running coroutine, itself usable as an event (fires on return).

    The wrapped generator yields :class:`Event` instances; the process is
    resumed when each fires. When the generator returns, the process event
    succeeds with the generator's return value; if it raises, the process
    event fails with the exception (which propagates to any process that is
    waiting on it, or aborts the simulation run otherwise).
    """

    __slots__ = ("generator", "name", "daemon", "_target", "_resume_cb")

    def __init__(self, sim: "Simulator", generator: ProcessGenerator,
                 name: Optional[str] = None, daemon: bool = False):
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"process() requires a generator, got {generator!r}")
        # Event.__init__ inlined: processes are spawned per message send
        # and per in-flight block read, so construction is a hot path.
        self.sim = sim
        self.callbacks = []
        self.value = None
        self._triggered = False
        self._ok = True
        self._defused = False
        self._pooled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        # Daemon processes (idle service loops) may legitimately outlive
        # the run; only non-daemons count for stall detection.
        self.daemon = daemon
        if not daemon:
            sim._alive.add(self)
        self._target: Optional[Event] = None
        # One bound method reused for every wait: appending self._resume
        # directly would allocate a fresh bound-method object per event.
        self._resume_cb = self._resume
        # Bootstrap: resume the generator as soon as the simulation runs.
        # Scheduled directly through a recycled relay — no fresh Event,
        # no succeed() round trip — at exactly the position the old
        # bootstrap event occupied, so event ordering is unchanged.
        relay = sim._relay()
        relay.callbacks.append(self._resume_cb)
        sim._push([sim._now, next(sim._counter), relay])

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if self._triggered:
            raise SimulationError(f"{self.name}: cannot interrupt a finished process")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume_cb)
            except ValueError:
                pass
        self._target = None
        # A failed, pre-defused relay carrying the Interrupt reuses the
        # ordinary _resume path: _ok=False selects generator.throw(), and
        # _defused stops the kernel loop from re-raising the exception.
        event = self.sim._relay()
        event._ok = False
        event._defused = True
        event.value = Interrupt(cause)
        event.callbacks.append(self._resume_cb)
        self.sim._schedule(event)

    def _resume(self, event: Event) -> None:
        # The kernel invokes this once per processed event, so the resume
        # branch and the generator step loop live in one frame. _target
        # is not cleared here: the hot path overwrites it below, and the
        # completion arms reset it explicitly.
        sim = self.sim
        generator = self.generator
        value = event.value
        if event._ok:
            throw = False
        else:
            event._defused = True
            throw = True
        while True:
            sim._active_process = self
            try:
                if throw:
                    target = generator.throw(value)
                else:
                    target = generator.send(value)
            except StopIteration as stop:
                sim._active_process = None
                sim._alive.discard(self)
                self._target = None
                # Break the process <-> bound-method cycle so finished
                # processes are freed by refcounting, not the cycle GC.
                self._resume_cb = None
                self.succeed(stop.value)
                return
            except BaseException as exc:
                sim._active_process = None
                sim._alive.discard(self)
                self._target = None
                self._resume_cb = None
                self.fail(exc)
                return
            sim._active_process = None
            if isinstance(target, Event):
                break
            # Non-Event yield: throw SimulationError into the generator
            # and route *both* outcomes through the normal completion
            # logic — a generator that catches the error and yields a
            # proper Event continues; one that lets it (or anything
            # else) propagate fails the process event instead of
            # escaping the kernel loop.
            value = SimulationError(
                f"{self.name}: processes must yield Event instances, "
                f"got {target!r}")
            throw = True
        callbacks = target.callbacks
        if callbacks is None:
            # Already fired and handled; resume via a recycled relay so
            # that processing order stays deterministic.
            relay = sim._relay()
            relay.value = target.value
            relay._ok = target._ok
            relay.callbacks.append(self._resume_cb)
            sim._push([sim._now, next(sim._counter), relay])
            self._target = relay
        else:
            callbacks.append(self._resume_cb)
            self._target = target

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "finished" if self._triggered else "alive"
        return f"<Process {self.name} ({state})>"


class _Condition(Event):
    """Base for AllOf/AnyOf composite events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self.events = list(events)
        for event in self.events:
            if event.sim is not sim:
                raise SimulationError("cannot mix events from different simulators")
            if event._pooled:
                # Conditions read component values after their events are
                # processed; a recycled pause()/relay event may have been
                # reused (and rewritten) by then.
                raise SimulationError(
                    "pooled events (sim.pause) cannot be composed; "
                    "use sim.timeout() for events you retain")
        self._pending = len(self.events)
        if not self.events:
            self.succeed([])
        else:
            for event in self.events:
                event.add_callback(self._check)

    def _check(self, event: Event) -> None:
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when *all* component events have fired.

    The value is the list of component event values, in construction order.
    """

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            # The condition already fired (or failed); a component that
            # fails afterwards must still be defused or its exception
            # would abort the whole simulation with no waiter to catch it.
            if not event.ok:
                event._defused = True
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e.value for e in self.events])


class AnyOf(_Condition):
    """Fires when *any* component event fires; value is ``(event, value)``."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            if not event.ok:
                event._defused = True
            return
        if not event.ok:
            event._defused = True
            self.fail(event.value)
            return
        self.succeed((event, event.value))


class Simulator:
    """The event loop: owns the clock and the pending-event queue.

    Parameters
    ----------
    trace:
        Optional callable ``trace(time, event)`` invoked for every event
        processed — useful for debugging simulations.
    debug:
        Run every event through :meth:`step` (the instrumented loop)
        even with no trace installed.

    Attributes
    ----------
    telemetry:
        The observability hub every instrumentation probe reports to.
        Defaults to the no-op :data:`~repro.telemetry.NULL_TELEMETRY`;
        install a real :class:`~repro.telemetry.Telemetry` (before
        building components) to capture spans and metrics.
    faults:
        The fault injector component models register ports with.
        Defaults to the no-op :data:`~repro.faults.NULL_FAULTS`; install
        a real :class:`~repro.faults.FaultInjector` (before building
        components) to arm a fault plan.
    """

    def __init__(self, trace: Optional[Callable[[float, Event], None]] = None,
                 debug: bool = False):
        from ..faults import NULL_FAULTS
        from ..invariants import NULL_INVARIANTS
        from ..telemetry import NULL_TELEMETRY
        self._now = 0.0
        # Queue entries are [time, seq, event] *lists*, not tuples: on
        # CPython 3.11 the list freelist makes the push/pop cycle
        # measurably faster (timeout_storm best-of-5: 0.211s vs 0.219s
        # with tuples, ~3.5%); comparison cost is identical since the
        # seq tie-break means element two is never reached. The seq
        # gives FIFO order among same-tick events, which is what makes
        # every run byte-reproducible.
        self._queue: List[List[Any]] = []
        # Every schedule site pushes through this C-level partial: one
        # attribute load and one C call per event.
        self._push = partial(heappush, self._queue)
        self._counter = itertools.count()
        self._active_process: Optional[Process] = None
        self._trace = trace
        self._debug = debug
        self.event_count = 0
        self.telemetry = NULL_TELEMETRY
        self.faults = NULL_FAULTS
        self.invariants = NULL_INVARIANTS
        self._hooks: List[Any] = []
        self._alive: set = set()
        # Recycled kernel objects: relay/bootstrap/interrupt events and
        # pause() timeouts, returned here by the fast run loop.
        self._relay_pool: List[Event] = []
        self._timeout_pool: List[Timeout] = []

    @property
    def debug(self) -> bool:
        """True when :meth:`run` uses the instrumented per-event loop."""
        return self._debug or self._trace is not None

    # -- lifecycle hooks ---------------------------------------------------
    def add_hook(self, hook: Any) -> None:
        """Register a lifecycle hook (idempotent).

        A hook is any object with optional ``run_started(sim)`` and
        ``run_finished(sim)`` methods. ``run_started`` fires at each
        entry to :meth:`run`, ``run_finished`` when that call returns
        (including on error) — both in registration order. The
        telemetry subsystem uses this to start its periodic sampler and
        to finalize spans.
        """
        if hook not in self._hooks:
            self._hooks.append(hook)

    def _notify(self, method: str) -> None:
        for hook in self._hooks:
            callback = getattr(hook, method, None)
            if callback is not None:
                callback(self)

    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being stepped, if any."""
        return self._active_process

    # -- event factories -------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that fires ``delay`` seconds from now."""
        return Timeout(self, delay, value)

    def pause(self, delay: float) -> Timeout:
        """A pooled one-shot timeout for yield-and-forget sleeps.

        Semantically identical to ``timeout(delay)`` for the dominant
        ``yield sim.pause(d)`` pattern, but the Timeout object is
        recycled the moment its callbacks have run, so a hot loop pays
        no allocation per sleep. The contract: **do not retain** the
        returned event — don't store it, don't read it after it fires,
        and don't put it in ``all_of``/``any_of`` (conditions reject
        pooled events). Use :meth:`timeout` for anything you keep.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        pool = self._timeout_pool
        if pool:
            # The fast loop recycles pause timeouts with callbacks
            # cleared and value/_ok/_defused already in their fresh
            # state, so reuse is pop + delay.
            timeout = pool.pop()
            timeout.delay = delay
        else:
            timeout = Timeout.__new__(Timeout)
            timeout.sim = self
            timeout.callbacks = []
            timeout.value = None
            timeout._triggered = True
            timeout._ok = True
            timeout._defused = False
            timeout._pooled = True
            timeout.delay = delay
        self._push([self._now + delay, next(self._counter), timeout])
        return timeout

    def _relay(self) -> Event:
        """A recycled pre-triggered event for kernel-internal scheduling.

        Used for process bootstraps, already-processed-target relays and
        interrupt delivery: the caller appends its callback and calls
        :meth:`_schedule`. Returned to the pool by the fast run loop.
        """
        pool = self._relay_pool
        if pool:
            # Recycled with callbacks cleared and value/_ok/_defused
            # reset by the fast loop; ready to use as-is.
            return pool.pop()
        event = Event(self)
        event._triggered = True
        event._pooled = True
        return event

    def process(self, generator: ProcessGenerator,
                name: Optional[str] = None, daemon: bool = False) -> Process:
        """Start a new process from ``generator``.

        Daemon processes (``daemon=True``) are service loops that may
        idle forever; they are excluded from :class:`SimStalled`
        deadlock detection.
        """
        return Process(self, generator, name=name, daemon=daemon)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Composite event that fires when all ``events`` fire."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Composite event that fires when the first of ``events`` fires."""
        return AnyOf(self, events)

    # -- scheduling -------------------------------------------------------
    def _schedule(self, event: Event, delay: float = 0.0) -> None:
        self._push([self._now + delay, next(self._counter), event])

    def peek(self) -> float:
        """Time of the next scheduled event (``inf`` if none)."""
        queue = self._queue
        return queue[0][0] if queue else _INF

    def step(self) -> None:
        """Process exactly one event (the instrumented, debuggable path).

        This is the slow-path twin of the inlined loop in
        :meth:`_run_fast`. It feeds the trace callback, calls the armed
        invariant auditor's per-event hook and leaves processed events
        un-recycled so they stay inspectable. :meth:`run` loops over it
        whenever a trace is installed, ``debug=True`` or an auditor is
        armed; manual single-stepping always goes through here.
        """
        queue = self._queue
        if not queue:
            raise SimulationError(
                "step() on an empty event queue: nothing is scheduled "
                "(use run(), or schedule an event first)")
        when, _, event = heappop(queue)
        if self.invariants.enabled:
            # Before the past-time check below, so an armed run reports
            # a kernel breach as a structured violation.
            self.invariants.kernel_event(when, event)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        self.event_count += 1
        if self._trace is not None:
            self._trace(when, event)
        callbacks, event.callbacks = event.callbacks, None
        for callback in callbacks:
            callback(event)
        if not event._ok and not event._defused:
            raise event.value

    def _run_fast(self, until: float) -> None:
        """The hot loop: pop / advance clock / fire callbacks.

        The past-time assertion matches :meth:`step` (same exception
        class and message for the same defect in either loop); the
        trace and auditor hooks live only in :meth:`step`, selected once
        per :meth:`run` call instead of being re-tested per event.
        Pooled relay/pause events are recycled here the moment their
        callbacks have run.
        """
        queue = self._queue
        pop = heappop
        relay_pool = self._relay_pool
        timeout_pool = self._timeout_pool
        timeout_cls = Timeout
        now = self._now
        count = 0
        try:
            while queue and queue[0][0] <= until:
                when, _, event = pop(queue)
                if when < now:
                    raise SimulationError("event scheduled in the past")
                self._now = now = when
                count += 1
                callbacks = event.callbacks
                event.callbacks = None
                for callback in callbacks:
                    callback(event)
                if not event._ok and not event._defused:
                    raise event.value
                if event._pooled:
                    # Recycle fully reset: reuse in pause()/_relay() is
                    # then a bare pop (the hotter side of the cycle),
                    # and the callbacks list is reused too.
                    callbacks.clear()
                    event.callbacks = callbacks
                    if event.__class__ is timeout_cls:
                        timeout_pool.append(event)
                    else:
                        event.value = None
                        event._ok = True
                        event._defused = False
                        relay_pool.append(event)
        finally:
            self.event_count += count

    def run(self, until: Optional[float] = None) -> None:
        """Run until the event queue drains or the clock reaches ``until``.

        With a trace installed, ``debug=True`` or an armed
        :class:`~repro.invariants.InvariantAuditor` installed, every
        event goes through :meth:`step`; otherwise the inlined fast
        loop processes events with the per-event hooks hoisted out.

        Raises
        ------
        SimStalled
            If an unbounded run (``until is None``) drains the queue
            while non-daemon processes are still waiting: nothing can
            ever wake them, so the simulation has deadlocked. Bounded
            runs skip the check — waiters may legitimately be resumed
            by events triggered between ``run(until=...)`` calls.
        """
        if until is not None and until < self._now:
            raise SimulationError(
                f"run(until={until}) is in the past (now={self._now})")
        limit = _INF if until is None else until
        self._notify("run_started")
        try:
            if self.debug or self.invariants.enabled:
                queue = self._queue
                step = self.step
                while queue and queue[0][0] <= limit:
                    step()
            else:
                self._run_fast(limit)
            if until is None:
                if self._alive:
                    raise SimStalled(sorted(p.name for p in self._alive))
            else:
                self._now = until
        finally:
            self._notify("run_finished")
