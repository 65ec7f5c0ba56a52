"""``repro serve`` / ``submit`` / ``status`` — the service front doors.

:func:`serve` binds a socket listener, spawns N local worker processes
that dial back in, and runs the coordinator loop until stopped by
SIGINT/SIGTERM (graceful: workers get ``stop``, the queue and journals
are already on disk) or until ``exit_after_jobs`` jobs have reached a
terminal state (the CI hook). Workers killed out from under the
coordinator are *not* respawned — their cells are reassigned to the
survivors, which is the failure mode the service exists to absorb;
attach replacements any time with ``repro worker``.

:func:`submit_request` and :func:`fetch_status` are the one-shot
clients: connect, send one message, read one reply.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

from ..experiments.workers import _mp_context
from . import protocol
from .coordinator import Coordinator
from .transport import ChannelClosed, SocketTransport
from .worker import worker_main

__all__ = ["serve", "spawn_local_workers", "submit_request",
           "fetch_status", "render_status", "default_socket"]

#: Where the socket and service state live unless overridden.
DEFAULT_STATE_DIR = os.path.join("results", "service")


def default_socket(state_dir: str = DEFAULT_STATE_DIR) -> str:
    return os.path.join(state_dir, "coordinator.sock")


def _local_worker_entry(address: str, worker_id: str,
                        heartbeat_interval: float,
                        cell_timeout: Optional[float]) -> None:
    # Local workers die with the coordinator's stop message or their
    # own signal; SIGTERM default handling (exit) is what we want.
    worker_main(address, worker_id,
                heartbeat_interval=heartbeat_interval,
                cell_timeout=cell_timeout)


def spawn_local_workers(address: str, count: int, *,
                        heartbeat_interval: float = 0.5,
                        cell_timeout: Optional[float] = None) -> List:
    """Start ``count`` worker processes dialing ``address``."""
    ctx = _mp_context()
    procs = []
    for index in range(count):
        proc = ctx.Process(
            target=_local_worker_entry,
            args=(address, f"w{index + 1}", heartbeat_interval,
                  cell_timeout),
            name=f"repro-service-w{index + 1}", daemon=True)
        proc.start()
        procs.append(proc)
    return procs


class _StopSignals:
    """Route SIGINT/SIGTERM to ``coordinator.stop()`` for the block."""

    def __init__(self, coordinator: Coordinator):
        self._coordinator = coordinator
        self._previous: Dict[int, object] = {}

    def __enter__(self):
        if threading.current_thread() is threading.main_thread():
            def _stop(signum, frame):
                self._coordinator.stop()
            for signum in (signal.SIGINT, signal.SIGTERM):
                try:
                    self._previous[signum] = signal.signal(signum, _stop)
                except (ValueError, OSError):  # pragma: no cover
                    pass
        return self

    def __exit__(self, *exc):
        for signum, previous in self._previous.items():
            signal.signal(signum, previous)
        return False


def serve(socket_path: Optional[str] = None, *,
          state_dir: str = DEFAULT_STATE_DIR,
          out_dir: str = "results",
          workers: int = 2,
          retries: int = 1,
          backoff: float = 0.05,
          heartbeat_interval: float = 0.5,
          heartbeat_timeout: Optional[float] = None,
          assign_timeout: Optional[float] = None,
          max_pending: Optional[int] = None,
          cell_timeout: Optional[float] = None,
          exit_after_jobs: Optional[int] = None,
          exit_linger: float = 2.0,
          telemetry=None,
          log: Optional[Callable[[str], None]] = None,
          poll_interval: float = 0.02) -> int:
    """Run a coordinator (plus ``workers`` local workers) until stopped."""
    if workers < 0:
        raise ValueError(f"workers must be >= 0, got {workers}")
    if log is None:
        def log(message: str) -> None:
            print(message, flush=True)
    address = socket_path or default_socket(state_dir)
    os.makedirs(state_dir, exist_ok=True)
    listener = SocketTransport().listen(address)
    coordinator = Coordinator(state_dir, listener, out_dir=out_dir,
                              retries=retries, backoff=backoff,
                              heartbeat_timeout=(heartbeat_timeout
                                                 or 6 * heartbeat_interval),
                              assign_timeout=assign_timeout,
                              max_pending=max_pending,
                              telemetry=telemetry, log=log)
    procs = spawn_local_workers(address, workers,
                                heartbeat_interval=heartbeat_interval,
                                cell_timeout=cell_timeout)
    pending = coordinator.queue.counts()
    log(f"serving at {listener.address} — {workers} local worker(s), "
        f"state in {state_dir}/"
        + (f"; resuming {pending['running'] + pending['queued']} job(s)"
           if pending["running"] + pending["queued"] else ""))
    exit_code = 0
    try:
        with _StopSignals(coordinator):
            linger_until = None
            while not coordinator.stopped:
                progressed = coordinator.step()
                if exit_after_jobs is not None and linger_until is None:
                    terminal = (coordinator.counters["jobs_completed"]
                                + coordinator.counters["jobs_failed"])
                    if terminal >= exit_after_jobs:
                        log(f"processed {terminal} job(s); exiting "
                            f"(--exit-after-jobs {exit_after_jobs})")
                        # Keep answering status queries briefly so a
                        # `submit --wait` client sees the final state;
                        # drain so a racing submit gets a deterministic
                        # `rejected: shutting-down` instead of a hang.
                        coordinator.begin_drain()
                        linger_until = time.monotonic() + exit_linger
                if (linger_until is not None
                        and time.monotonic() >= linger_until):
                    break
                if not progressed:
                    time.sleep(poll_interval)
    except KeyboardInterrupt:   # pragma: no cover - signal path races
        pass
    finally:
        coordinator.close()
        deadline = time.monotonic() + 2.0
        for proc in procs:
            proc.join(max(0.0, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(0.5)
        counts = coordinator.queue.counts()
        if counts["failed"]:
            exit_code = 1
        log(f"stopped: {coordinator.queue.summary()}")
    return exit_code


# ------------------------------------------------------------------ clients
def _one_shot(address: str, message: Dict, timeout: float) -> Dict:
    channel = SocketTransport().connect(address, timeout=timeout)
    try:
        channel.send(message)
        reply = channel.recv(timeout)
    finally:
        channel.close()
    if reply is None:
        raise TimeoutError(f"no reply from coordinator at {address} "
                           f"within {timeout:g}s")
    if reply.get("kind") == "error":
        raise ValueError(reply.get("error") or "coordinator refused")
    if reply.get("kind") == "rejected":
        reason = reply.get("reason") or "rejected"
        detail = ", ".join(f"{key}={value}" for key, value in reply.items()
                           if key not in ("kind", "reason"))
        raise ValueError(f"coordinator rejected request: {reason}"
                         + (f" ({detail})" if detail else ""))
    return reply


def submit_request(address: str, request: Dict, *,
                   wait: bool = False,
                   poll: float = 0.5,
                   timeout: float = 10.0,
                   wait_timeout: Optional[float] = None,
                   log: Optional[Callable[[str], None]] = None) -> Dict:
    """Submit one sweep request; optionally poll until it is terminal.

    Returns ``{"job": id, "status": <last known status>, ...}``.
    """
    reply = _one_shot(address, protocol.submit(request), timeout)
    job_id = reply["job"]
    if log is not None:
        log(f"submitted {job_id}")
    if not wait:
        return {"job": job_id, "status": "queued"}
    deadline = (None if wait_timeout is None
                else time.monotonic() + wait_timeout)
    while True:
        status = fetch_status(address, timeout=timeout)
        entry = next((job for job in status.get("jobs", [])
                      if job["id"] == job_id), None)
        if entry is not None and entry["status"] in ("done", "failed"):
            return {"job": job_id, "status": entry["status"],
                    "error": entry.get("error"), "snapshot": status}
        if deadline is not None and time.monotonic() >= deadline:
            raise TimeoutError(
                f"{job_id} not terminal after {wait_timeout:g}s "
                f"(last: {entry['status'] if entry else 'unknown'})")
        time.sleep(poll)


def fetch_status(address: str, timeout: float = 10.0) -> Dict:
    return _one_shot(address, protocol.status_request(), timeout)


def render_status(payload: Dict) -> str:
    """Human-readable ``repro status`` output."""
    lines = [f"coordinator at {payload.get('address', '?')}"]
    queue = payload.get("queue", {})
    lines.append("queue: " + (", ".join(
        f"{queue[s]} {s}" for s in ("queued", "running", "done", "failed")
        if queue.get(s)) or "empty"))
    jobs = payload.get("jobs", [])
    if jobs:
        lines.append("jobs:")
        for job in jobs:
            line = (f"  {job['id']}  {job.get('figure') or '?':<5} "
                    f"{job['status']:<8}")
            if "total" in job:
                line += (f" cells {job['done']}/{job['total']}"
                         f" ({job['inflight']} in flight, "
                         f"{job['pending']} pending"
                         + (f", {job['quarantined']} quarantined"
                            if job.get("quarantined") else "") + ")")
            if job.get("error"):
                line += f"  [{job['error']}]"
            lines.append(line)
    workers = payload.get("workers", [])
    if workers:
        lines.append("workers:")
        for worker in workers:
            state = ("LOST: " + (worker.get("lost_reason") or "?")
                     if worker.get("lost")
                     else f"heartbeat {worker['heartbeat_age']:.1f}s ago")
            line = (f"  {worker['id']:<6} pid={worker.get('pid') or '?':<7} "
                    f"done={worker['completed']:<4} {state}")
            if worker.get("inflight"):
                line += f"  running {worker['inflight']}"
            lines.append(line)
    counters = payload.get("counters", {})
    shown = ", ".join(f"{name}={value}"
                      for name, value in counters.items() if value)
    lines.append(f"counters: {shown or 'all zero'}")
    return "\n".join(lines)


def _require_channel_closed_export():  # pragma: no cover - import guard
    return ChannelClosed


if __name__ == "__main__":  # pragma: no cover - debugging aid
    sys.exit(serve())
