"""Asynchronous I/O interface (``lio_listio``-style) with bounded depth.

All three architectures issue large (256 KB) requests and keep several in
flight ("deep request queues — up to four asynchronous requests", paper
Section 3). :class:`AsyncIO` enforces the depth bound with a credit
semaphore and charges the OS costs on the owning CPU: submit pays
``syscall + driver_queue``, completion pays ``interrupt + context_switch``.

Recovery: an optional :class:`~repro.faults.RetryPolicy` /
:class:`~repro.faults.TimeoutPolicy` pair makes the completion side
supervise each request — device errors and missed deadlines are re-issued
after an exponential backoff (each re-issue paying
``OSParams.io_retry_cost`` on the CPU) until the budget runs dry, at
which point the overall event fails with
:class:`~repro.faults.RequestAborted`. Without policies a device error
simply propagates to the waiter.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from ..faults.errors import FaultError, RequestAborted
from ..faults.policies import RetryPolicy, TimeoutPolicy
from ..sim import Event, Server, Simulator
from .cpu import Cpu
from .os_model import OSParams

__all__ = ["AsyncIO"]


class AsyncIO:
    """Bounded-depth async request issue against one drive (or volume).

    Parameters
    ----------
    submit_fn:
        ``submit_fn(op, offset, nbytes) -> Event`` — the underlying device
        operation (a :class:`DiskDrive` bound method or a striped-volume
        method).
    depth:
        Maximum requests in flight.
    retry:
        Re-issue schedule for failed or timed-out requests (None: no
        re-issue, errors propagate on the first failure).
    timeout:
        Per-attempt deadline after which a request is declared lost and
        re-issued (None: wait forever for the device).
    """

    def __init__(self, sim: Simulator, cpu: Cpu, os_params: OSParams,
                 submit_fn: Callable[[str, int, int], Event],
                 depth: int = 4,
                 retry: Optional[RetryPolicy] = None,
                 timeout: Optional[TimeoutPolicy] = None):
        if depth < 1:
            raise ValueError(f"queue depth must be >= 1, got {depth}")
        self.sim = sim
        self.cpu = cpu
        self.os_params = os_params
        self.submit_fn = submit_fn
        self.depth = depth
        self.retry = retry
        self.timeout = timeout
        self._credits = Server(sim, capacity=depth, name="aio.credits")
        self._outstanding: list = []
        self.submitted = 0
        self.completed = 0
        self.retried = 0
        self.timeouts = 0
        self.errors = 0

    def submit(self, op: str, offset: int,
               nbytes: int) -> Generator[Event, Any, Event]:
        """Issue a request; blocks while the queue is full.

        Returns (as generator value) an event that fires when the request —
        including its completion-side OS cost — is done. With a retry or
        timeout policy armed the event fails with
        :class:`~repro.faults.RequestAborted` (or the last device error)
        only after the recovery budget is exhausted.
        """
        yield self._credits.request()
        yield from self.cpu.compute_raw(
            self.os_params.io_submit_cost(), bucket="os")
        self.submitted += 1
        device_done = self.submit_fn(op, offset, nbytes)
        overall_done = Event(self.sim)
        self._outstanding.append(overall_done)
        self.sim.process(
            self._completion(op, offset, nbytes, device_done, overall_done),
            name="aio-complete")
        return overall_done

    def _completion(self, op: str, offset: int, nbytes: int,
                    device_done: Event, overall_done: Event):
        error = yield from self._supervise(op, offset, nbytes, device_done)
        self._credits.release()
        yield from self.cpu.compute_raw(
            self.os_params.io_complete_cost(), bucket="os")
        self._outstanding.remove(overall_done)
        if error is None:
            self.completed += 1
            overall_done.succeed()
        else:
            self.errors += 1
            overall_done.fail(error)
            # Pre-defused: a waiter that yields the event still sees the
            # exception; an abandoned one cannot abort the simulation.
            overall_done._defused = True

    def _supervise(self, op: str, offset: int, nbytes: int,
                   device_done: Event):
        """Wait for the device, re-issuing per policy. Returns the error
        that exhausted the budget, or None on success."""
        attempts = self.retry.max_attempts if self.retry is not None else 1
        last_error: Optional[BaseException] = None
        for attempt in range(attempts):
            if attempt > 0:
                self.retried += 1
                self.sim.faults.note("faults.host.io_retries")
                yield self.sim.timeout(self.retry.delay(attempt - 1))
                yield from self.cpu.compute_raw(
                    self.os_params.io_retry_cost(), bucket="os")
                device_done = self.submit_fn(op, offset, nbytes)
            try:
                if self.timeout is None:
                    yield device_done
                    return None
                deadline = self.sim.timeout(self.timeout.timeout_for(attempt))
                fired, _ = yield self.sim.any_of([device_done, deadline])
                if fired is not deadline:
                    return None
                # The orphaned request may still complete (or fail —
                # AnyOf defuses late failures); either way it is charged
                # to the device, exactly like a real lost request.
                self.timeouts += 1
                self.sim.faults.note("faults.host.io_timeouts")
                last_error = RequestAborted(
                    f"aio {op} at {offset} timed out "
                    f"(attempt {attempt + 1}/{attempts})")
            except FaultError as exc:
                self.sim.faults.note("faults.host.io_errors")
                last_error = exc
        return last_error

    def drain(self) -> Generator[Event, Any, None]:
        """Wait until every in-flight request has completed."""
        while self._outstanding:
            yield self.sim.all_of(list(self._outstanding))
