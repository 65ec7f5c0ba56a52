"""The service wire vocabulary: JSON message builders and constants.

Every message exchanged between a coordinator and its peers is one JSON
object with a ``kind`` field, sent as a single line over a
:class:`~repro.service.transport.Channel`. The vocabulary is small and
versioned:

Worker -> coordinator
    ``hello``       first message on a worker channel; declares the role
    ``heartbeat``   liveness beacon, sent every ``heartbeat_interval``
    ``result``      terminal report for one assigned cell
    ``goodbye``     graceful disconnect

Coordinator -> worker
    ``welcome``     registration ack; carries the worker's **epoch**
    ``assign``      one cell to execute (spec + attempt number)
    ``stop``        shut the worker down

Client -> coordinator (one-shot channels)
    ``submit``      enqueue a sweep request; replied with ``submitted``
    ``status``      replied with a ``status`` payload

Coordinator -> client
    ``submitted``   carries the new job id
    ``status``      queue depth, jobs, per-worker liveness, counters
    ``rejected``    admission control said no (queue full, draining)
    ``error``       the request could not be honoured

The **epoch** is a per-worker-id registration counter: every time a
worker (re)registers, the coordinator bumps it and echoes it in
``welcome``; the worker then stamps it on every ``heartbeat``,
``result`` and ``goodbye``. A frame carrying a stale epoch is provably
from a superseded registration and is fenced (dropped, counted,
journaled) instead of applied — see ``docs/CHAOS.md``. The epoch field
is optional on the wire so version-1 peers interoperate.

``result.status`` is ``done`` or one of the failure kinds of
:mod:`repro.experiments.lifecycle` — ``error``, ``timeout``,
``crashed`` or ``violation`` — and the coordinator reports it to the
job's ``CellLedger``, the same retry/quarantine rules a local sweep
follows (see ``docs/HARNESS.md``).
"""

from __future__ import annotations

from typing import Dict, Optional

__all__ = [
    "PROTOCOL_VERSION", "RESULT_STATUSES",
    "hello", "heartbeat", "result", "goodbye",
    "welcome", "assign", "stop",
    "submit", "submitted", "status_request", "status_reply", "error_reply",
    "rejected",
]

PROTOCOL_VERSION = 1

#: Legal ``result.status`` values, mirroring the pool's failure kinds.
RESULT_STATUSES = ("done", "error", "timeout", "crashed", "violation")


# ------------------------------------------------------------- worker ->
def hello(worker: str, pid: int) -> Dict:
    return {"kind": "hello", "version": PROTOCOL_VERSION,
            "worker": worker, "pid": pid}


def heartbeat(worker: str, epoch: Optional[int] = None) -> Dict:
    message = {"kind": "heartbeat", "worker": worker}
    if epoch is not None:
        message["epoch"] = epoch
    return message


def result(job: str, key: str, attempt: int, status: str, *,
           result: Optional[Dict] = None,
           error: Optional[str] = None,
           violation: Optional[Dict] = None,
           epoch: Optional[int] = None) -> Dict:
    if status not in RESULT_STATUSES:
        raise ValueError(f"bad result status {status!r}; "
                         f"pick one of {RESULT_STATUSES}")
    message: Dict = {"kind": "result", "job": job, "key": key,
                     "attempt": attempt, "status": status}
    if result is not None:
        message["result"] = result
    if error is not None:
        message["error"] = error
    if violation is not None:
        message["violation"] = violation
    if epoch is not None:
        message["epoch"] = epoch
    return message


def goodbye(worker: str, epoch: Optional[int] = None) -> Dict:
    message = {"kind": "goodbye", "worker": worker}
    if epoch is not None:
        message["epoch"] = epoch
    return message


# -------------------------------------------------------- coordinator ->
def welcome(worker: str, epoch: int) -> Dict:
    return {"kind": "welcome", "version": PROTOCOL_VERSION,
            "worker": worker, "epoch": epoch}


def assign(job: str, key: str, spec: Dict, attempt: int) -> Dict:
    return {"kind": "assign", "job": job, "key": key, "spec": spec,
            "attempt": attempt}


def stop() -> Dict:
    return {"kind": "stop"}


# ------------------------------------------------------------- client ->
def submit(request: Dict) -> Dict:
    return {"kind": "submit", "request": request}


def submitted(job: str) -> Dict:
    return {"kind": "submitted", "job": job}


def status_request() -> Dict:
    return {"kind": "status"}


def status_reply(payload: Dict) -> Dict:
    message = {"kind": "status"}
    message.update(payload)
    return message


def error_reply(message: str) -> Dict:
    return {"kind": "error", "error": message}


def rejected(reason: str, **fields) -> Dict:
    """Admission-control refusal (``queue-full``, ``shutting-down``)."""
    message = {"kind": "rejected", "reason": reason}
    message.update(fields)
    return message
