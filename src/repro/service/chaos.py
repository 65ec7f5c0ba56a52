"""Seeded chaos injection for the sweep service transport layer.

This is the service-layer sibling of :mod:`repro.faults`: where a
:class:`~repro.faults.plan.FaultPlan` schedules *simulated hardware*
faults inside one process, a :class:`ChaosPlan` schedules *distributed
systems* faults — message drops, delays (reordering), duplication,
byte-level corruption, abrupt disconnects, one-way partitions — on the
real channels between a live coordinator and its workers. The same
design rules apply:

* **Declarative and serialisable.** A plan is a tuple of
  :class:`ChaosSpec` entries plus a seed; it round-trips through JSON
  losslessly (``repro chaos --plan plan.json``).
* **Deterministic.** Each wrapped channel derives its RNG from
  ``(plan.seed, channel role)``, and every injection decision is a
  draw against the message sequence on that channel — the same plan,
  seed and message sequence always produce the same chaos schedule.
* **Zero-cost when disarmed.** Chaos lives entirely in a wrapper
  (:class:`ChaosTransport` around any
  :class:`~repro.service.transport.Transport`); a run without a plan
  never even constructs the wrapper, so the production hot path is
  untouched, not merely gated.

Plan-file schema::

    {
      "seed": 42,
      "chaos": [
        {"kind": "drop", "target": "accept*", "direction": "recv",
         "probability": 0.05},
        {"kind": "delay", "target": "accept#1", "probability": 0.1,
         "magnitude": 3},
        {"kind": "partition", "target": "accept#2", "direction": "recv",
         "probability": 0.02, "magnitude": 8, "limit": 1}
      ]
    }

``target`` is an fnmatch pattern over channel **roles**: the Nth
channel a listener accepts is ``accept#N``, the Nth outbound dial is
``connect#N``. ``direction`` is from the wrapped channel's point of
view — on a coordinator-side accepted channel, ``send`` chaos hits
coordinator->worker traffic (assignments, welcomes) and ``recv`` chaos
hits worker->coordinator traffic (hellos, heartbeats, results).

Kinds and their ``magnitude``:

``drop``
    The message silently vanishes.
``duplicate``
    The message is delivered twice.
``delay``
    The message is held until ``magnitude`` later messages have passed
    it (reordering; a held message still in flight when the channel
    closes is flushed late — the classic late-result-from-a-dead-worker
    scenario).
``corrupt``
    ``magnitude`` characters of the serialized frame are mangled
    (default 3) and the garbage goes on the wire verbatim; the receiver
    sees :class:`~repro.service.transport.MalformedFrame`.
``disconnect``
    The channel is abruptly closed mid-conversation (a chaos "kill");
    a hardened worker reconnects under a fresh epoch.
``partition``
    A one-way partition: this and the next ``magnitude`` messages in
    the rule's direction are dropped, the other direction flows.

See ``docs/CHAOS.md`` for the hardening guarantees the gauntlet
(:mod:`repro.service.gauntlet`, ``repro chaos``) asserts under these
plans.
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import asdict, dataclass
from fnmatch import fnmatchcase
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .transport import Channel, ChannelClosed, Listener, MalformedFrame, Transport

__all__ = ["CHAOS_KINDS", "ChaosSpec", "ChaosPlan",
           "ChaosChannel", "ChaosListener", "ChaosTransport"]

#: Injectable chaos kinds, in the order rules are consulted.
CHAOS_KINDS = ("drop", "duplicate", "delay", "corrupt",
               "disconnect", "partition")

_DIRECTIONS = ("send", "recv", "both")

#: Kinds whose magnitude is a whole message count and must be >= 1.
_COUNTED_KINDS = frozenset({"delay", "partition"})

#: Kinds that take no magnitude at all.
_PLAIN_KINDS = frozenset({"drop", "duplicate", "disconnect"})


@dataclass(frozen=True)
class ChaosSpec:
    """One chaos rule, armed per matching channel.

    ``probability`` is the per-message chance the rule fires once
    armed; ``after`` delays arming until that many messages have passed
    in the rule's direction; ``limit`` caps total firings (0 means
    unlimited). ``magnitude`` means: messages to reorder past
    (``delay``), characters to mangle (``corrupt``; 0 picks the
    default 3), or partition window length in messages
    (``partition``).
    """

    kind: str
    target: str = "*"
    direction: str = "send"
    probability: float = 1.0
    after: int = 0
    limit: int = 0
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ValueError(f"unknown chaos kind {self.kind!r}; "
                             f"expected one of {', '.join(CHAOS_KINDS)}")
        if not self.target:
            raise ValueError("chaos target pattern must be non-empty")
        if self.direction not in _DIRECTIONS:
            raise ValueError(f"direction must be one of {_DIRECTIONS}, "
                             f"got {self.direction!r}")
        if not 0 < self.probability <= 1:
            raise ValueError(f"probability must be in (0, 1], "
                             f"got {self.probability}")
        if self.after < 0:
            raise ValueError(f"after must be >= 0, got {self.after}")
        if self.limit < 0:
            raise ValueError(f"limit must be >= 0, got {self.limit}")
        if self.magnitude < 0 or self.magnitude != int(self.magnitude):
            raise ValueError(f"magnitude is a whole message/character "
                             f"count, got {self.magnitude}")
        if self.kind in _COUNTED_KINDS and self.magnitude < 1:
            raise ValueError(f"{self.kind} needs a magnitude >= 1")
        if self.kind in _PLAIN_KINDS and self.magnitude:
            raise ValueError(f"{self.kind} takes no magnitude, "
                             f"got {self.magnitude}")

    def matches(self, role: str, direction: str) -> bool:
        return (fnmatchcase(role, self.target)
                and self.direction in (direction, "both"))

    def to_dict(self) -> Dict[str, Any]:
        data = asdict(self)
        defaults = {"target": "*", "direction": "send", "probability": 1.0,
                    "after": 0, "limit": 0, "magnitude": 0.0}
        return {key: value for key, value in data.items()
                if key == "kind" or value != defaults.get(key)}

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosSpec":
        unknown = set(data) - {"kind", "target", "direction", "probability",
                               "after", "limit", "magnitude"}
        if unknown:
            raise ValueError(
                f"unknown chaos spec fields: {', '.join(sorted(unknown))}")
        return cls(**data)


@dataclass(frozen=True)
class ChaosPlan:
    """An immutable schedule of chaos rules plus the RNG seed."""

    specs: Tuple[ChaosSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))
        for spec in self.specs:
            if not isinstance(spec, ChaosSpec):
                raise TypeError(
                    f"expected ChaosSpec, got {type(spec).__name__}")

    def __len__(self) -> int:
        return len(self.specs)

    def __iter__(self):
        return iter(self.specs)

    @classmethod
    def of(cls, *specs: ChaosSpec, seed: int = 0) -> "ChaosPlan":
        return cls(specs=specs, seed=seed)

    def to_dict(self) -> Dict[str, Any]:
        return {"seed": self.seed,
                "chaos": [spec.to_dict() for spec in self.specs]}

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ChaosPlan":
        unknown = set(data) - {"seed", "chaos"}
        if unknown:
            raise ValueError(
                f"unknown chaos plan fields: {', '.join(sorted(unknown))}")
        rules = data.get("chaos", ())
        if not isinstance(rules, Iterable) or isinstance(rules, (str, bytes)):
            raise ValueError("'chaos' must be a list of chaos specs")
        return cls(specs=tuple(ChaosSpec.from_dict(item) for item in rules),
                   seed=int(data.get("seed", 0)))

    @classmethod
    def from_json(cls, text: str) -> "ChaosPlan":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: str) -> "ChaosPlan":
        with open(path) as handle:
            return cls.from_json(handle.read())

    def to_file(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")


class ChaosChannel(Channel):
    """A channel that applies one seeded chaos schedule to its traffic.

    At most one rule fires per message (the first armed rule, in plan
    order, whose probability draw succeeds), so a plan's effects
    compose predictably. Delayed messages are re-delivered verbatim —
    chaos is never re-applied to them.

    Caveat for blocking callers: a dropped inbound frame makes
    :meth:`recv` return ``None`` even with ``timeout=None`` (the frame
    was consumed, nothing is left to return). Every service loop polls
    with a finite timeout, so in practice this just looks like a quiet
    wire.
    """

    def __init__(self, inner: Channel, plan: ChaosPlan, role: str,
                 transport: Optional["ChaosTransport"] = None):
        self.inner = inner
        self.peer = f"chaos:{role}({inner.peer})"
        self.role = role
        self._transport = transport
        self._rng = random.Random(f"{plan.seed}:{role}")
        self._send_rules = [spec for spec in plan.specs
                            if spec.matches(role, "send")]
        self._recv_rules = [spec for spec in plan.specs
                            if spec.matches(role, "recv")]
        self._fired: Dict[int, int] = {}
        self._sent = 0
        self._received = 0
        self._held_send: List[Tuple[int, Dict]] = []
        self._held_recv: List[Tuple[int, Dict]] = []
        self._queued_recv: deque = deque()
        self._mute_send_until = 0
        self._mute_recv_until = 0

    # ------------------------------------------------------------ decisions
    def _note(self, kind: str) -> None:
        if self._transport is not None:
            self._transport._note(kind)

    def _fire(self, rules: List[ChaosSpec], seq: int) -> Optional[ChaosSpec]:
        for rule in rules:
            if seq <= rule.after:
                continue
            key = id(rule)
            fired = self._fired.get(key, 0)
            if rule.limit and fired >= rule.limit:
                continue
            if rule.probability < 1 and self._rng.random() >= rule.probability:
                continue
            self._fired[key] = fired + 1
            return rule
        return None

    # ----------------------------------------------------------------- send
    def send(self, message: Dict) -> None:
        self._sent += 1
        seq = self._sent
        self._release_held_send(seq)
        if seq <= self._mute_send_until:
            self._note("partitioned")
            return
        rule = self._fire(self._send_rules, seq)
        if rule is None:
            self.inner.send(message)
            return
        self._note(rule.kind)
        if rule.kind == "drop":
            return
        if rule.kind == "duplicate":
            self.inner.send(message)
            self.inner.send(message)
            return
        if rule.kind == "delay":
            self._held_send.append((seq + int(rule.magnitude), message))
            return
        if rule.kind == "corrupt":
            self.inner.send_text(self._mangle(message, rule))
            return
        if rule.kind == "disconnect":
            self.inner.close()
            raise ChannelClosed(f"{self.peer}: chaos disconnect")
        # partition: this message opens the window and is its first loss
        self._mute_send_until = seq + int(rule.magnitude)
        self._note("partitioned")

    def send_text(self, text: str) -> None:
        self.inner.send_text(text)

    def _release_held_send(self, seq: int) -> None:
        if not self._held_send:
            return
        due = [message for release_at, message in self._held_send
               if release_at <= seq]
        self._held_send = [(release_at, message)
                           for release_at, message in self._held_send
                           if release_at > seq]
        for message in due:
            self.inner.send(message)

    def _mangle(self, message: Dict, rule: ChaosSpec) -> str:
        text = json.dumps(message, sort_keys=True)
        flips = int(rule.magnitude) or 3
        chars = list(text)
        for _ in range(flips):
            position = self._rng.randrange(len(chars))
            chars[position] = chr(33 + self._rng.randrange(90))
        return "".join(chars)

    # ----------------------------------------------------------------- recv
    def recv(self, timeout: Optional[float] = None) -> Optional[Dict]:
        if self._queued_recv:
            return self._queued_recv.popleft()
        message = self.inner.recv(timeout)
        if message is None:
            return None
        self._received += 1
        seq = self._received
        self._release_held_recv(seq)
        if seq <= self._mute_recv_until:
            self._note("partitioned")
            return self._pop_queued()
        rule = self._fire(self._recv_rules, seq)
        if rule is None:
            return message
        self._note(rule.kind)
        if rule.kind == "drop":
            return self._pop_queued()
        if rule.kind == "duplicate":
            self._queued_recv.append(json.loads(json.dumps(message)))
            return message
        if rule.kind == "delay":
            self._held_recv.append((seq + int(rule.magnitude), message))
            return self._pop_queued()
        if rule.kind == "corrupt":
            raise MalformedFrame(self.peer, self._mangle(message, rule))
        if rule.kind == "disconnect":
            self.inner.close()
            raise ChannelClosed(f"{self.peer}: chaos disconnect")
        # partition
        self._mute_recv_until = seq + int(rule.magnitude)
        self._note("partitioned")
        return self._pop_queued()

    def _release_held_recv(self, seq: int) -> None:
        if not self._held_recv:
            return
        due = [message for release_at, message in self._held_recv
               if release_at <= seq]
        self._held_recv = [(release_at, message)
                           for release_at, message in self._held_recv
                           if release_at > seq]
        self._queued_recv.extend(due)

    def _pop_queued(self) -> Optional[Dict]:
        return self._queued_recv.popleft() if self._queued_recv else None

    # ----------------------------------------------------------------- misc
    def poll(self) -> bool:
        return bool(self._queued_recv) or self.inner.poll()

    def fileno(self) -> int:
        return self.inner.fileno()

    def close(self) -> None:
        # Delayed sends still in flight are flushed late — exactly the
        # "late result from a presumed-dead worker" scenario the
        # coordinator's epoch fencing exists to absorb.
        held, self._held_send = self._held_send, []
        try:
            for _, message in held:
                self.inner.send(message)
        except (ChannelClosed, OSError):
            pass
        self.inner.close()


class ChaosListener(Listener):
    """Wraps a listener so every accepted channel gets the plan."""

    def __init__(self, inner: Listener, transport: "ChaosTransport"):
        self.inner = inner
        self.address = inner.address
        self._transport = transport

    def accept(self, timeout: Optional[float] = None) -> Optional[Channel]:
        channel = self.inner.accept(timeout)
        if channel is None:
            return None
        return self._transport._wrap(channel, "accept")

    def fileno(self) -> int:
        return self.inner.fileno()

    def close(self) -> None:
        self.inner.close()


class ChaosTransport(Transport):
    """A transport wrapper that arms a :class:`ChaosPlan` on every channel.

    ``stats`` accumulates the number of times each chaos kind actually
    fired (plus ``partitioned`` for every message muted inside a
    partition window); with ``telemetry`` the same counts mirror into
    ``service.chaos.*`` counters.
    """

    scheme = "chaos"

    def __init__(self, inner: Transport, plan: ChaosPlan, telemetry=None):
        self.inner = inner
        self.plan = plan
        self.telemetry = telemetry
        self.stats: Dict[str, int] = {}
        self._accepted = 0
        self._connected = 0
        if telemetry is not None:
            registry = telemetry.registry
            for kind in CHAOS_KINDS + ("partitioned",):
                registry.counter(f"service.chaos.{kind}")

    def listen(self, address: str) -> Listener:
        return ChaosListener(self.inner.listen(address), self)

    def connect(self, address: str,
                timeout: Optional[float] = None) -> Channel:
        return self._wrap(self.inner.connect(address, timeout), "connect")

    def _wrap(self, channel: Channel, side: str) -> ChaosChannel:
        if side == "accept":
            self._accepted += 1
            role = f"accept#{self._accepted}"
        else:
            self._connected += 1
            role = f"connect#{self._connected}"
        return ChaosChannel(channel, self.plan, role, transport=self)

    def _note(self, kind: str) -> None:
        self.stats[kind] = self.stats.get(kind, 0) + 1
        if self.telemetry is not None:
            self.telemetry.registry.counter(f"service.chaos.{kind}").add(1)
