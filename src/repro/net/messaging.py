"""MPI-like user-space messaging: tag-matched point-to-point send/recv.

Models the BSPlib-style library the paper assumes on clusters: pinned
buffers and asynchronous sends. Messages are (src, tag, nbytes, payload)
tuples; payloads are opaque simulation metadata (no actual data bytes
are shuffled — only their costs). The functional simulator
(:mod:`repro.funcsim`) exchanges its partial results through it; the
cluster machine's own phase barrier is a closed form
(``ClusterMachine.phase_barrier``).

CPU overheads: each send and each receive completion charges a fixed
software overhead on the caller's CPU when a per-host CPU server list is
supplied, mirroring how Howsim charged user-space messaging costs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Any, Deque, Generator, List, Optional, Tuple

from ..sim import Event, Server, Simulator
from .network import Network

__all__ = ["Message", "Mailbox", "Messaging", "ANY_TAG"]

#: Wildcard receive tag (matches any message), like MPI_ANY_TAG.
ANY_TAG = object()


@dataclass(frozen=True, slots=True)
class Message:
    """One delivered message."""

    src: int
    dst: int
    tag: Any
    nbytes: int
    payload: Any = None


class Mailbox:
    """Per-host tag-matched receive queue."""

    def __init__(self, sim: Simulator, host: int):
        self.sim = sim
        self.host = host
        self._messages: Deque[Message] = deque()
        self._waiters: Deque[Tuple[Any, Event]] = deque()

    def deliver(self, message: Message) -> None:
        """Called by the transport when a message fully arrives."""
        for i, (tag, event) in enumerate(self._waiters):
            if tag is ANY_TAG or tag == message.tag:
                del self._waiters[i]
                event.succeed(message)
                return
        self._messages.append(message)

    def receive(self, tag: Any = ANY_TAG) -> Event:
        """Event that fires with the next message matching ``tag``."""
        got = Event(self.sim)
        for i, message in enumerate(self._messages):
            if tag is ANY_TAG or tag == message.tag:
                del self._messages[i]
                got.succeed(message)
                return got
        self._waiters.append((tag, got))
        return got

    def pending(self) -> int:
        return len(self._messages)


class Messaging:
    """Async point-to-point messaging over a :class:`Network`."""

    def __init__(self, network: Network, num_hosts: int,
                 send_overhead: float = 30e-6,
                 recv_overhead: float = 30e-6,
                 cpus: Optional[List[Server]] = None):
        self.network = network
        self.sim = network.sim
        self.num_hosts = num_hosts
        self.send_overhead = send_overhead
        self.recv_overhead = recv_overhead
        self.cpus = cpus
        self.mailboxes = [Mailbox(self.sim, h) for h in range(num_hosts)]

    def _charge_cpu(self, host: int,
                    seconds: float) -> Generator[Event, Any, None]:
        if self.cpus is not None and seconds > 0:
            yield from self.cpus[host].serve(seconds)
        elif seconds > 0:
            yield self.sim.pause(seconds)

    # -- point to point -----------------------------------------------------
    def isend(self, src: int, dst: int, tag: Any, nbytes: int,
              payload: Any = None) -> Event:
        """Start an asynchronous send; the event fires on delivery."""

        def _send() -> Generator[Event, Any, None]:
            began = self.sim.now
            yield from self._charge_cpu(src, self.send_overhead)
            yield from self.network.transfer(src, dst, nbytes)
            self.mailboxes[dst].deliver(
                Message(src, dst, tag, nbytes, payload))
            tel = self.sim.telemetry
            if tel.enabled:
                tel.spans.complete(
                    "net", f"send {src}->{dst}", f"net.msg.host{src}",
                    began, self.sim.now - began, args={"nbytes": nbytes})
                tel.registry.counter("net.msg.sends").add()

        return self.sim.process(_send(), name=f"send{src}->{dst}")

    def send(self, src: int, dst: int, tag: Any, nbytes: int,
             payload: Any = None) -> Generator[Event, Any, None]:
        """Blocking send (generator): returns once delivered."""
        yield self.isend(src, dst, tag, nbytes, payload)

    def recv(self, host: int,
             tag: Any = ANY_TAG) -> Generator[Event, Any, Message]:
        """Blocking receive (generator): returns the matching message."""
        message = yield self.mailboxes[host].receive(tag)
        yield from self._charge_cpu(host, self.recv_overhead)
        return message
