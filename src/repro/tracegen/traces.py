"""Trace records: the Howsim workload format, derived from task programs.

Howsim's workload was a trace of processing times and I/O requests per
task. This module expands a :class:`~repro.arch.program.TaskProgram` into
exactly that — an ordered stream of :class:`TraceRecord` per worker —
which serves four purposes:

* it documents what the machine engines execute, in the paper's own
  terms;
* tests cross-check the engines' byte/time accounting against the trace
  totals;
* the trace-replay example shows the workload a single disk unit sees;
* the open-loop traffic generator (:mod:`repro.traffic`) folds each
  session's records into a byte/compute demand profile.

Everything here is *streaming*: :func:`worker_trace` is a generator, a
whole session's records (:func:`session_trace`) are a lazy round-robin
interleave of its per-worker generators, and :func:`fold_totals`
aggregates any record stream in O(1) memory. No function in this module
materializes a trace — which is what keeps memory flat when tens of
thousands of concurrent sessions stream their workloads through the
traffic engine.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Sequence

from ..arch.program import TaskProgram

__all__ = ["TraceRecord", "worker_trace", "stream_worker_trace",
           "trace_totals", "fold_totals", "interleave_records",
           "session_trace", "session_totals"]


@dataclass(frozen=True)
class TraceRecord:
    """One trace entry.

    ``op`` is one of ``compute`` (seconds at the reference clock in
    ``seconds``), ``read``, ``write``, ``send_peer`` or ``send_frontend``
    (bytes in ``nbytes``). ``phase`` and ``label`` locate the entry.
    """

    op: str
    phase: str
    label: str = ""
    seconds: float = 0.0
    nbytes: int = 0


def stream_worker_trace(program: TaskProgram, worker: int, workers: int,
                        block_bytes: int = 256 * 1024
                        ) -> Iterator[TraceRecord]:
    """Yield the trace one worker executes for ``program``.

    Receiver-side work (append/build costs for shuffled bytes) is traced
    at the worker under steady state: with a uniform shuffle each worker
    receives as many bytes as it repartitions.
    """
    if not 0 <= worker < workers:
        raise ValueError(f"worker {worker} out of range 0..{workers - 1}")
    for phase in program.phases:
        share = phase.read_bytes_total // workers
        if worker < phase.read_bytes_total % workers:
            share += 1
        remaining = share
        shuffled = 0
        fronted = 0
        written = 0
        while remaining > 0:
            nbytes = min(block_bytes, remaining)
            remaining -= nbytes
            yield TraceRecord("read", phase.name, nbytes=nbytes)
            for comp in phase.cpu:
                yield TraceRecord(
                    "compute", phase.name, comp.label,
                    seconds=comp.ns_per_byte * 1e-9 * nbytes)
            shuffled += int(nbytes * phase.shuffle_fraction)
            fronted += int(nbytes * phase.frontend_fraction)
            written += int(nbytes * phase.write_fraction)
            while shuffled >= block_bytes:
                shuffled -= block_bytes
                yield TraceRecord("send_peer", phase.name,
                                  nbytes=block_bytes)
            while fronted >= block_bytes:
                fronted -= block_bytes
                yield TraceRecord("send_frontend", phase.name,
                                  nbytes=block_bytes)
            while written >= block_bytes:
                written -= block_bytes
                yield TraceRecord("write", phase.name, nbytes=block_bytes)
        shuffled += phase.shuffle_fixed_per_worker
        fronted += phase.frontend_fixed_per_worker
        if shuffled > 0:
            yield TraceRecord("send_peer", phase.name, nbytes=shuffled)
        if fronted > 0:
            yield TraceRecord("send_frontend", phase.name, nbytes=fronted)
        if written > 0:
            yield TraceRecord("write", phase.name, nbytes=written)
        # Steady-state receiver work for this worker's incoming share.
        incoming = int(share * phase.shuffle_fraction) \
            + phase.shuffle_fixed_per_worker
        if incoming > 0:
            for comp in phase.recv:
                yield TraceRecord(
                    "compute", phase.name, comp.label,
                    seconds=comp.ns_per_byte * 1e-9 * incoming)
            recv_write = int(incoming * phase.recv_write_fraction)
            if recv_write > 0:
                yield TraceRecord("write", phase.name, nbytes=recv_write)


def worker_trace(program: TaskProgram, worker: int, workers: int,
                 block_bytes: int = 256 * 1024) -> Iterator[TraceRecord]:
    """Lazy per-worker trace; the long-standing public spelling.

    Identical record-for-record to :func:`stream_worker_trace`, which
    holds the expansion logic.
    """
    return stream_worker_trace(program, worker, workers, block_bytes)


def fold_totals(records: Iterable[TraceRecord],
                totals: Optional[Dict] = None) -> Dict:
    """Aggregate any record stream into totals per operation, O(1) memory.

    Pass an existing ``totals`` dict to accumulate across several streams
    (e.g. every worker of a session, or every session of a tenant).
    """
    if totals is None:
        totals = {"compute_seconds": 0.0, "read_bytes": 0, "write_bytes": 0,
                  "peer_bytes": 0, "frontend_bytes": 0, "records": 0}
    for record in records:
        totals["records"] += 1
        if record.op == "compute":
            totals["compute_seconds"] += record.seconds
        elif record.op == "read":
            totals["read_bytes"] += record.nbytes
        elif record.op == "write":
            totals["write_bytes"] += record.nbytes
        elif record.op == "send_peer":
            totals["peer_bytes"] += record.nbytes
        elif record.op == "send_frontend":
            totals["frontend_bytes"] += record.nbytes
    return totals


def trace_totals(program: TaskProgram, worker: int, workers: int,
                 block_bytes: int = 256 * 1024) -> dict:
    """Aggregate a worker trace into totals per operation."""
    return fold_totals(worker_trace(program, worker, workers, block_bytes))


def interleave_records(streams: Sequence[Iterator[TraceRecord]]
                       ) -> Iterator[TraceRecord]:
    """Round-robin merge of record streams, one record per turn.

    Models concurrent workers making block-granularity progress side by
    side. Memory is O(streams): only the generator frames live, never
    their expanded records.
    """
    active = deque(iter(stream) for stream in streams)
    while active:
        stream = active.popleft()
        try:
            record = next(stream)
        except StopIteration:
            continue
        active.append(stream)
        yield record


def session_trace(program: TaskProgram, workers: int,
                  block_bytes: int = 256 * 1024) -> Iterator[TraceRecord]:
    """Lazily yield one session's full trace across all its workers.

    A *session* is one query admitted by the traffic layer: ``program``
    executed by ``workers`` units concurrently. The per-worker streams
    are interleaved round-robin, so consuming the result touches one
    block-sized record at a time regardless of dataset scale.
    """
    return interleave_records(
        [stream_worker_trace(program, worker, workers, block_bytes)
         for worker in range(workers)])


def session_totals(program: TaskProgram, workers: int,
                   block_bytes: int = 256 * 1024) -> Dict:
    """Fold a whole session's streamed trace into byte/compute totals."""
    return fold_totals(session_trace(program, workers, block_bytes))
