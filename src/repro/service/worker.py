"""The service worker: execute assigned cells, heartbeat, report back.

A :class:`ServiceWorker` connects a channel to a coordinator, announces
itself (``hello``), waits for the coordinator's ``welcome`` (which
carries its registration **epoch** — see :mod:`.protocol`), then loops:
receive an ``assign``, run the cell, send a ``result``. A daemon thread
sends a ``heartbeat`` every ``heartbeat_interval`` seconds — including
while a cell is running — so the coordinator can tell "busy with a long
simulation" from "dead". Every frame after the handshake is stamped
with the epoch, which is what lets the coordinator fence frames from a
superseded registration.

Cell execution goes through the same
:func:`~repro.experiments.workers.run_cells` machinery as a local
sweep: with ``cell_timeout`` set, each cell runs in its own
subprocess, so a crash or a hang in one pathological configuration is
contained (and reported as ``crashed``/``timeout``, never taking the
worker down), and an interrupt drains the subprocess pool through the
shared :func:`~repro.experiments.workers.drain_pool` path. Without a
timeout the cell runs inline — fastest, with the coordinator's
lost-worker reassignment as the safety net. Retries are the
coordinator's job; a worker reports each attempt's outcome verbatim.

**Reconnect.** Given a ``reconnect`` factory (``repro worker`` passes
one that re-dials the coordinator socket), a dropped connection is not
fatal: the worker backs off exponentially, re-dials, re-registers under
a fresh epoch, and — crucially — re-sends a completed-but-unsent
``result`` it was holding when the connection died, stamped with the
*new* epoch so it is salvaged rather than fenced. A coordinator restart
mid-job therefore costs a handshake, not the work (see
``docs/CHAOS.md``).
"""

from __future__ import annotations

import os
import threading
import time
from typing import Callable, Dict, Optional

from ..experiments.artifacts import result_to_dict
from ..experiments.workers import CellSpec, run_cell, run_cells
from . import protocol
from .transport import Channel, ChannelClosed, MalformedFrame, SocketTransport

__all__ = ["ServiceWorker", "worker_main"]


class ServiceWorker:
    """One worker loop bound to a connected channel."""

    def __init__(self, channel: Channel, worker_id: Optional[str] = None, *,
                 heartbeat_interval: float = 0.5,
                 cell_timeout: Optional[float] = None,
                 cell_fn: Callable = run_cell,
                 reconnect: Optional[Callable[[], Channel]] = None,
                 reconnect_backoff: float = 0.05,
                 max_reconnects: int = 8,
                 handshake_timeout: float = 5.0):
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be positive, "
                             f"got {heartbeat_interval}")
        if reconnect_backoff <= 0:
            raise ValueError(f"reconnect_backoff must be positive, "
                             f"got {reconnect_backoff}")
        if max_reconnects < 0:
            raise ValueError(f"max_reconnects must be >= 0, "
                             f"got {max_reconnects}")
        self.channel = channel
        self.worker_id = worker_id or f"pid{os.getpid()}"
        self.heartbeat_interval = heartbeat_interval
        self.cell_timeout = cell_timeout
        self.cell_fn = cell_fn
        self.reconnect = reconnect
        self.reconnect_backoff = reconnect_backoff
        self.max_reconnects = max_reconnects
        self.handshake_timeout = handshake_timeout
        self.cells_run = 0
        self.reconnects = 0
        self.epoch: Optional[int] = None
        self._unsent: Optional[Dict] = None
        # Gates the heartbeat thread: beats flow only between a
        # completed handshake and the next disconnect.
        self._ready = threading.Event()

    # --------------------------------------------------------------- run
    def run(self) -> int:
        """Serve until told to stop or the coordinator stays away.

        Returns the number of cells executed.
        """
        stop_beating = threading.Event()
        beater = threading.Thread(target=self._beat, args=(stop_beating,),
                                  name=f"heartbeat-{self.worker_id}",
                                  daemon=True)
        beater.start()
        try:
            if not self._handshake(self.channel) and not self._reconnected():
                return self.cells_run
            while True:
                try:
                    message = self.channel.recv(0.25)
                except ChannelClosed:
                    if self._reconnected():
                        continue
                    break             # coordinator gone; nothing to tell
                if message is None:
                    continue
                kind = message.get("kind")
                if kind == "welcome":
                    # A duplicated welcome; re-adopt the epoch it names.
                    self.epoch = message.get("epoch", self.epoch)
                elif kind == "stop":
                    try:
                        self.channel.send(protocol.goodbye(self.worker_id,
                                                           self.epoch))
                    except ChannelClosed:
                        pass
                    break
                elif kind == "assign":
                    self._run_assignment(message)
        finally:
            stop_beating.set()
            beater.join(self.heartbeat_interval + 1.0)
            self._ready.clear()
            self.channel.close()
        return self.cells_run

    def _handshake(self, channel: Channel) -> bool:
        """hello -> welcome on ``channel``; flush any held result.

        Returns True with ``self.channel``/``self.epoch`` switched over
        on success. A coordinator that assigns work without welcoming
        (a pre-epoch peer) is accepted too, with no epoch stamping.
        """
        self._ready.clear()
        try:
            channel.send(protocol.hello(self.worker_id, os.getpid()))
            deadline = time.monotonic() + self.handshake_timeout
            while time.monotonic() < deadline:
                message = channel.recv(0.1)
                if message is None:
                    continue
                kind = message.get("kind")
                if kind == "welcome":
                    self.epoch = message.get("epoch")
                    break
                if kind == "assign":
                    self.epoch = None
                    self.channel = channel
                    self._flush_unsent()
                    self._ready.set()
                    self._run_assignment(message)
                    return True
                if kind == "stop":
                    return False
            else:
                return False
        except (ChannelClosed, MalformedFrame):
            return False
        self.channel = channel
        try:
            self._flush_unsent()
        except ChannelClosed:
            return False
        self._ready.set()
        return True

    def _reconnected(self) -> bool:
        """Back off, re-dial, re-register; False when out of attempts."""
        if self.reconnect is None:
            return False
        self._ready.clear()
        self.channel.close()
        for attempt in range(self.max_reconnects):
            time.sleep(self.reconnect_backoff * (2 ** attempt))
            try:
                channel = self.reconnect()
            except (OSError, ChannelClosed):
                continue
            if self._handshake(channel):
                self.reconnects += 1
                return True
            channel.close()
        return False

    def _flush_unsent(self) -> None:
        """Deliver the completed-but-unsent result held from before a
        disconnect, re-stamped with the current epoch."""
        if self._unsent is None:
            return
        message = dict(self._unsent)
        if self.epoch is not None:
            message["epoch"] = self.epoch
        else:
            message.pop("epoch", None)
        self.channel.send(message)      # ChannelClosed: caller retries
        self._unsent = None

    def _beat(self, stop: threading.Event) -> None:
        while not stop.wait(self.heartbeat_interval):
            if not self._ready.is_set():
                continue
            try:
                self.channel.send(protocol.heartbeat(self.worker_id,
                                                     self.epoch))
            except ChannelClosed:
                # The run loop notices the same disconnect and decides
                # whether to reconnect; keep the thread alive for that.
                continue

    # -------------------------------------------------------------- cells
    def _run_assignment(self, message) -> None:
        job, key, attempt = message["job"], message["key"], message["attempt"]
        outcome = run_cells([CellSpec.from_dict(message["spec"])],
                            timeout=self.cell_timeout,
                            cell_fn=self.cell_fn)[0]
        self.cells_run += 1
        if outcome.status == "done":
            reply = protocol.result(job, key, attempt, "done",
                                    result=result_to_dict(outcome.result),
                                    epoch=self.epoch)
        else:
            reply = protocol.result(job, key, attempt, outcome.kind,
                                    error=outcome.error,
                                    violation=outcome.violation,
                                    epoch=self.epoch)
        try:
            self.channel.send(reply)
        except ChannelClosed:
            # Hold the result; the reconnect handshake re-sends it under
            # the fresh epoch (the run loop sees the disconnect next).
            self._unsent = reply


def worker_main(address: str, worker_id: Optional[str] = None, *,
                heartbeat_interval: float = 0.5,
                cell_timeout: Optional[float] = None,
                connect_timeout: float = 10.0,
                reconnect_backoff: float = 0.25,
                max_reconnects: int = 8) -> int:
    """Entry point for a socket-transport worker process (``repro worker``)."""
    transport = SocketTransport()

    def dial() -> Channel:
        return transport.connect(address, timeout=connect_timeout)

    try:
        channel = dial()
    except OSError as exc:
        raise SystemExit(f"worker: cannot reach coordinator at "
                         f"{address}: {exc}") from exc
    worker = ServiceWorker(channel, worker_id,
                           heartbeat_interval=heartbeat_interval,
                           cell_timeout=cell_timeout,
                           reconnect=dial,
                           reconnect_backoff=reconnect_backoff,
                           max_reconnects=max_reconnects)
    worker.run()
    return 0
