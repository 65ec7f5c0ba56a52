"""The sweep coordinator: job queue, dispatch, heartbeats, reassignment.

One :class:`Coordinator` owns

* a persistent :class:`~repro.service.jobs.JobQueue` of submitted
  :class:`~repro.service.requests.SweepRequest`\\ s,
* a :class:`~repro.experiments.journal.SweepJournal` per active job
  (under ``<state_dir>/jobs/``), written with per-worker attribution
  and service events so ``repro doctor --journal`` and ``repro
  resume`` both understand it,
* a registry of connected workers, each owed a heartbeat every
  ``heartbeat_interval`` seconds — a worker that goes silent past
  ``heartbeat_timeout`` (or whose connection drops, e.g. SIGKILL) is
  declared lost and its in-flight cell is **reassigned**.

Each job's cells live in a :class:`~repro.experiments.lifecycle.CellLedger`,
the same state machine the local harness drives: it owns the retry,
backoff and quarantine rules and every cell record of the journal. The
coordinator adds what is specific to the service: it reports a lost or
stalled worker's cell as a presumed ``crashed``/``timeout`` failure (one
attempt spent, then reassigned), and quarantined cells fail the job but
never sink it. Killing the coordinator itself loses nothing: on
restart, jobs left ``running`` re-activate and their journals' ``done``
cells are skipped, bit-identical.

The coordinator is single-threaded: drive it with :meth:`step` (tests)
or :meth:`serve_forever` (the ``repro serve`` loop). It is not
thread-safe; submit over a transport channel instead of calling
:meth:`submit` from another thread.

Hardening (see ``docs/CHAOS.md`` for the guarantees and the chaos
gauntlet that enforces them):

* **Epoch fencing** — every worker registration gets a monotonic
  per-id epoch, echoed in ``welcome`` and stamped by the worker on
  every frame; a frame carrying a stale epoch is dropped and counted
  (``service.fenced``), never applied. A reconnect under the same id
  supersedes the previous registration.
* **Exactly-once application** — results are deduplicated on
  ``(job, cell, attempt)`` and a cell's ``done`` is journaled at most
  once (``service.duplicate`` counts the drops), so duplicated or
  delayed frames after a reassignment cannot double-apply. A late
  ``done`` from a non-assignee still *salvages* the cell if it has not
  been applied yet — a completed-but-unsent result that survived a
  reconnect is work we keep.
* **Malformed frames** — a non-JSON or schema-violating frame drops
  only the offending channel, counted as ``service.malformed``; the
  pump loop never dies for it.
* **Admission control** — ``max_pending`` bounds the open-job queue;
  excess submits get a structured ``rejected`` reply
  (``service.rejected``), as do submits during drain
  (:meth:`begin_drain`, entered by ``repro serve`` exit-linger).
* **Assignment timeout** — with ``assign_timeout`` set, a cell
  in flight longer than the limit is reassigned (one attempt
  consumed), so a dropped ``assign`` or ``result`` frame cannot
  wedge a job forever.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..experiments.journal import SweepJournal
from ..experiments.lifecycle import CellLedger, CellOutcome, last_line
from . import protocol
from .jobs import Job, JobQueue
from .requests import SweepRequest
from .transport import Channel, ChannelClosed, Listener, MalformedFrame

__all__ = ["Coordinator", "WorkerState", "COUNTERS"]

#: Counter names every coordinator tracks (and mirrors into telemetry
#: as ``service.*`` — see docs/OBSERVABILITY.md).
COUNTERS = ("jobs_submitted", "jobs_completed", "jobs_failed",
            "dispatched", "results", "resumed_cells", "reassigned",
            "workers_lost", "heartbeats",
            "fenced", "duplicate", "malformed", "rejected", "reconnects")


@dataclass
class WorkerState:
    """Liveness and load of one connected worker."""

    id: str
    channel: Channel
    pid: Optional[int] = None
    epoch: int = 1
    last_seen: float = 0.0
    inflight: Optional[Tuple[str, str, int]] = None   # (job, key, attempt)
    assigned_at: float = 0.0
    completed: int = 0
    lost: bool = False
    lost_reason: Optional[str] = None


@dataclass
class _ActiveJob:
    """Dispatch state of the job currently being executed."""

    job: Job
    request: SweepRequest
    journal: SweepJournal
    journal_path: str
    ledger: CellLedger
    inflight: Dict[str, str] = field(default_factory=dict)  # key -> worker

    def finished(self) -> bool:
        return not self.ledger.queue and not self.inflight

    def progress(self) -> Dict[str, int]:
        ledger = self.ledger
        quarantined, resumed = len(ledger.quarantined), len(ledger.resumed)
        return {"total": len(ledger.specs),
                "done": len(ledger.outcomes) - quarantined + resumed,
                "resumed": resumed, "pending": len(ledger.queue),
                "inflight": len(self.inflight), "quarantined": quarantined}


class Coordinator:
    """Owns the queue, the workers and the journals. Single-threaded."""

    def __init__(self, state_dir: str, listener: Listener, *,
                 out_dir: Optional[str] = None,
                 retries: int = 1,
                 backoff: float = 0.05,
                 heartbeat_timeout: float = 3.0,
                 assign_timeout: Optional[float] = None,
                 max_pending: Optional[int] = None,
                 telemetry=None,
                 log: Optional[Callable[[str], None]] = None):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if heartbeat_timeout <= 0:
            raise ValueError(f"heartbeat_timeout must be positive, "
                             f"got {heartbeat_timeout}")
        if assign_timeout is not None and assign_timeout <= 0:
            raise ValueError(f"assign_timeout must be positive, "
                             f"got {assign_timeout}")
        if max_pending is not None and max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.state_dir = os.fspath(state_dir)
        self.listener = listener
        self.out_dir = out_dir
        self.retries = retries
        self.backoff = backoff
        self.heartbeat_timeout = heartbeat_timeout
        self.assign_timeout = assign_timeout
        self.max_pending = max_pending
        self.telemetry = telemetry
        self._log = log
        self.queue = JobQueue.load(os.path.join(self.state_dir,
                                                "queue.jsonl"))
        self.workers: Dict[str, WorkerState] = {}
        self.active: Optional[_ActiveJob] = None
        self._unclassified: List[Channel] = []
        self._worker_seq = 0
        self._epochs: Dict[str, int] = {}
        self._draining = False
        self._stopped = False
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        if telemetry is not None:
            # Register the whole service.* subtree eagerly so the
            # metrics exist (at zero) from the first snapshot.
            registry = telemetry.registry
            for name in COUNTERS:
                registry.counter(f"service.{name.replace('_', '.')}")
            registry.gauge("service.queue.depth")
            registry.gauge("service.workers.live")
            registry.histogram("service.heartbeat.lag")

    # ----------------------------------------------------------- helpers
    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        if self.telemetry is not None:
            self.telemetry.registry.counter(
                f"service.{name.replace('_', '.')}").add(amount)

    def _gauges(self) -> None:
        if self.telemetry is None:
            return
        registry = self.telemetry.registry
        depth = 0
        if self.active is not None:
            depth = (len(self.active.ledger.queue)
                     + len(self.active.inflight))
        registry.gauge("service.queue.depth").set(depth)
        registry.gauge("service.workers.live").set(
            sum(1 for worker in self.workers.values() if not worker.lost))

    def _say(self, message: str) -> None:
        if self._log is not None:
            self._log(message)

    def journal_path_for(self, job_id: str) -> str:
        return os.path.join(self.state_dir, "jobs",
                            f"{job_id}.journal.jsonl")

    # ------------------------------------------------------------ submit
    def submit(self, request: Dict) -> Job:
        """Validate and enqueue one sweep request; returns its job."""
        parsed = SweepRequest.from_dict(request)
        if self.out_dir is not None and "out_dir" not in request:
            parsed = parsed.with_out_dir(self.out_dir)
        job = self.queue.submit(parsed.to_dict())
        self._count("jobs_submitted")
        self._say(f"{job.id}: queued {parsed.figure} "
                  f"(sizes {list(parsed.resolved_sizes)}, "
                  f"scale {parsed.scale:g})")
        return job

    # -------------------------------------------------------------- step
    def step(self) -> bool:
        """One scheduling pass; returns True if anything progressed."""
        progress = self._accept()
        progress |= self._classify()
        progress |= self._pump_workers()
        progress |= self._check_heartbeats()
        progress |= self._check_assignments()
        progress |= self._activate_next()
        if self.active is not None:
            progress |= self._dispatch()
            if self.active.finished():
                self._finalize()
                progress = True
        self._gauges()
        return progress

    def serve_forever(self, poll_interval: float = 0.02) -> None:
        while not self._stopped:
            if not self.step():
                time.sleep(poll_interval)

    def stop(self) -> None:
        self._stopped = True

    def begin_drain(self) -> None:
        """Refuse new submits from now on; keep answering status.

        ``repro serve`` enters drain when its exit-linger starts, so a
        ``submit`` racing the shutdown gets a deterministic
        ``rejected: shutting-down`` reply instead of a hang.
        """
        if not self._draining:
            self._draining = True
            self._say("draining: new submits will be rejected")

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def stopped(self) -> bool:
        return self._stopped

    def close(self) -> None:
        """Release sockets and files; active journal state stays on disk."""
        self.stop()
        for worker in self.workers.values():
            try:
                worker.channel.send(protocol.stop())
            except ChannelClosed:
                pass
            worker.channel.close()
        for channel in self._unclassified:
            channel.close()
        self._unclassified.clear()
        if self.active is not None:
            self.active.journal.close()
        self.queue.close()
        self.listener.close()

    # ------------------------------------------------------- connections
    def _accept(self) -> bool:
        progress = False
        while True:
            try:
                channel = self.listener.accept(0)
            except ChannelClosed:   # listener torn down underneath us
                return progress
            if channel is None:
                return progress
            self._unclassified.append(channel)
            progress = True

    def _classify(self) -> bool:
        progress = False
        for channel in list(self._unclassified):
            try:
                message = channel.recv(0)
            except ChannelClosed:
                self._unclassified.remove(channel)
                channel.close()
                continue
            except MalformedFrame as exc:
                # Garbage before we even know who is talking: count it,
                # drop only this channel, keep serving everyone else.
                self._unclassified.remove(channel)
                channel.close()
                self._note_malformed(str(exc))
                progress = True
                continue
            if message is None:
                continue
            self._unclassified.remove(channel)
            self._handle_first(channel, message)
            progress = True
        return progress

    def _handle_first(self, channel: Channel, message: Dict) -> None:
        kind = message.get("kind")
        if kind == "hello":
            self._register_worker(channel, message)
            return
        # Client channels are one-shot: reply, then close.
        try:
            if kind == "submit":
                self._handle_submit(channel, message)
            elif kind == "status":
                channel.send(protocol.status_reply(self.status()))
            else:
                channel.send(protocol.error_reply(
                    f"unknown request kind {kind!r}"))
        except ChannelClosed:
            pass
        channel.close()

    def _handle_submit(self, channel: Channel, message: Dict) -> None:
        if self._draining:
            self._reject(channel, "shutting-down",
                         queue=self.queue.counts())
            return
        open_jobs = self.queue.open_count()
        if self.max_pending is not None and open_jobs >= self.max_pending:
            self._reject(channel, "queue-full",
                         depth=open_jobs, limit=self.max_pending)
            return
        try:
            job = self.submit(message.get("request") or {})
        except ValueError as exc:
            channel.send(protocol.error_reply(str(exc)))
        else:
            channel.send(protocol.submitted(job.id))

    def _reject(self, channel: Channel, reason: str, **fields) -> None:
        self._count("rejected")
        if self.active is not None:
            self.active.journal.note_service("submit_rejected",
                                             reason=reason)
        self._say(f"rejected submit: {reason}")
        channel.send(protocol.rejected(reason, **fields))

    def _register_worker(self, channel: Channel, message: Dict) -> None:
        self._worker_seq += 1
        worker_id = message.get("worker") or f"w{self._worker_seq}"
        epoch = self._epochs.get(worker_id, 0) + 1
        self._epochs[worker_id] = epoch
        previous = self.workers.get(worker_id)
        if previous is not None:
            self._count("reconnects")
            if not previous.lost:
                # Same id, new channel: the fresh registration wins and
                # the stale one is fenced off (its in-flight cell, if
                # any, is reassigned like any other loss).
                self._lose_worker(previous,
                                  f"superseded by epoch {epoch}",
                                  event="worker_superseded",
                                  count_lost=False)
            elif self.active is not None:
                self.active.journal.note_service("worker_reconnect",
                                                 worker=worker_id,
                                                 epoch=epoch)
        worker = WorkerState(id=worker_id, channel=channel,
                             pid=message.get("pid"), epoch=epoch,
                             last_seen=time.monotonic())
        self.workers[worker_id] = worker
        try:
            channel.send(protocol.welcome(worker_id, epoch))
        except ChannelClosed:
            self._lose_worker(worker, "welcome undeliverable",
                              event="worker_lost")
            return
        self._say(f"worker {worker_id} connected (epoch {epoch})"
                  + (f" (pid {worker.pid})" if worker.pid else ""))

    # ----------------------------------------------------------- workers
    def _pump_workers(self) -> bool:
        progress = False
        for worker in list(self.workers.values()):
            if worker.lost:
                continue
            while True:
                try:
                    message = worker.channel.recv(0)
                except ChannelClosed:
                    self._lose_worker(worker, "connection closed",
                                      event="worker_lost")
                    break
                except MalformedFrame as exc:
                    # A corrupt frame means the stream can no longer be
                    # trusted; drop this channel only — the pump loop
                    # and every other worker keep going.
                    self._note_malformed(str(exc), worker=worker.id)
                    self._lose_worker(worker, "malformed frame",
                                      event="worker_lost")
                    progress = True
                    break
                if message is None:
                    break
                progress = True
                self._on_worker_message(worker, message)
                if worker.lost:
                    break
        return progress

    def _note_malformed(self, detail: str, *,
                        worker: Optional[str] = None) -> None:
        self._count("malformed")
        if self.active is not None:
            fields = {"worker": worker} if worker is not None else {}
            self.active.journal.note_service("malformed_frame", **fields)
        self._say(f"dropped malformed frame: {detail}")

    def _on_worker_message(self, worker: WorkerState, message: Dict) -> None:
        now = time.monotonic()
        kind = message.get("kind")
        epoch = message.get("epoch")
        if epoch is not None and epoch != worker.epoch:
            # Provably from a superseded registration of this id.
            self._count("fenced")
            if kind == "result" and self.active is not None:
                self.active.journal.note_service(
                    "epoch_fence", worker=worker.id,
                    key=message.get("key"), stale_epoch=epoch,
                    epoch=worker.epoch)
            self._say(f"fenced {kind or '?'} from {worker.id} "
                      f"(epoch {epoch}, current {worker.epoch})")
            return
        if kind == "heartbeat":
            lag = now - worker.last_seen
            worker.last_seen = now
            self._count("heartbeats")
            if self.telemetry is not None:
                self.telemetry.registry.histogram(
                    "service.heartbeat.lag").observe(lag)
            return
        worker.last_seen = now
        if kind == "result":
            self._on_result(worker, message)
        elif kind == "goodbye":
            self._lose_worker(worker, "said goodbye", event="worker_left",
                              count_lost=worker.inflight is not None)
        # anything else: forward-compatible noise, liveness already noted

    def _check_heartbeats(self) -> bool:
        now = time.monotonic()
        progress = False
        for worker in list(self.workers.values()):
            if worker.lost:
                continue
            silent = now - worker.last_seen
            if silent > self.heartbeat_timeout:
                self._lose_worker(
                    worker,
                    f"missed heartbeat deadline ({silent:.1f}s silent, "
                    f"limit {self.heartbeat_timeout:g}s)",
                    event="heartbeat_loss")
                progress = True
        return progress

    def _check_assignments(self) -> bool:
        """Reassign cells stuck in flight past ``assign_timeout``.

        A dropped ``assign`` or ``result`` frame leaves a healthy,
        heartbeating worker holding a cell forever; the timeout turns
        that wedge into an ordinary consumed attempt. The worker stays
        registered — if it was actually computing, its eventual
        ``done`` is salvaged (or deduplicated) by the result path.
        """
        if self.assign_timeout is None:
            return False
        now = time.monotonic()
        progress = False
        for worker in list(self.workers.values()):
            if worker.lost or worker.inflight is None:
                continue
            stalled = now - worker.assigned_at
            if stalled <= self.assign_timeout:
                continue
            inflight, worker.inflight = worker.inflight, None
            progress |= self._reclaim(
                worker, inflight,
                f"assignment to {worker.id} stalled "
                f"({stalled:.1f}s > {self.assign_timeout:g}s)",
                "timeout", event="assign_timeout")
        return progress

    def _lose_worker(self, worker: WorkerState, reason: str, *,
                     event: str, count_lost: bool = True) -> None:
        if worker.lost:
            return
        worker.lost = True
        worker.lost_reason = reason
        worker.channel.close()
        if count_lost:
            self._count("workers_lost")
        self._say(f"worker {worker.id} lost: {reason}")
        inflight = worker.inflight
        worker.inflight = None
        active = self.active
        if active is not None and (count_lost or inflight is not None):
            active.journal.note_service(event, worker=worker.id,
                                        reason=reason)
        # A lost worker is indistinguishable from a crashed one: the
        # attempt is spent, exactly as the local pool counts it.
        self._reclaim(worker, inflight,
                      f"worker {worker.id} lost mid-cell ({reason})",
                      "crashed")

    def _reclaim(self, worker: WorkerState,
                 inflight: Optional[Tuple[str, str, int]], error: str,
                 kind: str, event: Optional[str] = None) -> bool:
        """Spend the attempt ``worker`` held unless its cell moved on
        (finished, salvaged, reassigned), journaling ``event`` first."""
        active = self.active
        if (inflight is None or active is None
                or active.job.id != inflight[0]
                or active.inflight.get(inflight[1]) != worker.id):
            return False
        _, key, attempt = inflight
        del active.inflight[key]
        if event is not None:
            active.journal.note_service(event, worker=worker.id, key=key,
                                        attempt=attempt)
        if active.ledger.failed(key, attempt, error, kind, presumed=True):
            active.journal.note_service("reassign", key=key,
                                        attempt=attempt + 1,
                                        worker=worker.id)
            self._count("reassigned")
            self._say(f"{active.job.id}: reassigning {key} "
                      f"(attempt {attempt + 1})")
        return True

    # ----------------------------------------------------------- results
    def _on_result(self, worker: WorkerState, message: Dict) -> None:
        job_id = message.get("job")
        key = message.get("key")
        attempt = message.get("attempt", 0)
        status = message.get("status")
        if (not isinstance(job_id, str) or not isinstance(key, str)
                or isinstance(attempt, bool) or not isinstance(attempt, int)
                or status not in protocol.RESULT_STATUSES):
            # Valid JSON, broken schema: same treatment as line noise.
            self._note_malformed(
                f"schema-violating result from {worker.id}",
                worker=worker.id)
            self._lose_worker(worker, "schema-violating result",
                              event="worker_lost")
            return
        assigned = worker.inflight == (job_id, key, attempt)
        if assigned:
            worker.inflight = None
        active = self.active
        if (active is None or active.job.id != job_id
                or key not in active.ledger.specs):
            self._say(f"ignoring stale result for {key} "
                      f"from worker {worker.id}")
            return
        if active.ledger.settled(key, attempt):
            # Exactly-once guard: this (job, cell, attempt) — or the
            # cell's terminal state — was already applied. Drop it.
            self._count("duplicate")
            active.journal.note_service("duplicate_dropped",
                                        worker=worker.id, key=key,
                                        attempt=attempt)
            self._say(f"dropped duplicate result for {key} "
                      f"(attempt {attempt}) from worker {worker.id}")
            return
        if status != "done" and not assigned:
            # A failure report for an assignment that is no longer this
            # worker's: the live assignment decides the cell's fate.
            self._count("fenced")
            self._say(f"ignoring stale {status} result for {key} "
                      f"from worker {worker.id}")
            return
        assignee = active.inflight.pop(key, None)
        if assignee is not None and assignee != worker.id:
            # Completed-but-unsent result salvaged after reassignment:
            # first result wins; un-assign the other copy (its eventual
            # duplicate is dropped by the guard above).
            other = self.workers.get(assignee)
            if (other is not None and other.inflight is not None
                    and other.inflight[1] == key):
                other.inflight = None
            self._say(f"salvaged {key} from worker {worker.id}; "
                      f"withdrawing the copy on {assignee}")
        self._count("results")
        if status == "done":
            worker.completed += 1
            active.ledger.done(key, attempt, message.get("result"),
                               worker=worker.id)
        else:   # error / timeout / crashed / violation
            active.ledger.failed(key, attempt,
                                 message.get("error") or status, status,
                                 worker=worker.id,
                                 violation=message.get("violation"))

    def _on_outcome(self, outcome: CellOutcome) -> None:
        if outcome.status == "quarantined":
            self._say(f"{self.active.job.id}: quarantined {outcome.key}: "
                      f"{last_line(outcome.error)}")

    # -------------------------------------------------------------- jobs
    def _activate_next(self) -> bool:
        if self.active is not None:
            return False
        for job in self.queue.pending():
            if self._activate(job):
                return True
        return False

    def _activate(self, job: Job) -> bool:
        journal_path = self.journal_path_for(job.id)
        try:
            request = SweepRequest.from_dict(job.request)
            ledger = CellLedger(request.cells(),
                                SweepJournal.load(journal_path),
                                retries=self.retries, backoff=self.backoff,
                                meta=request.meta(),
                                on_outcome=self._on_outcome)
        except ValueError as exc:   # bad request, or a corrupt journal
            self.queue.update(job.id, "failed", error=str(exc))
            self._count("jobs_failed")
            self._say(f"{job.id}: rejected: {exc}")
            return False
        active = _ActiveJob(job=job, request=request,
                            journal=ledger.journal,
                            journal_path=journal_path, ledger=ledger)
        self._count("resumed_cells", len(ledger.resumed))
        if job.status != "running":
            self.queue.update(job.id, "running")
        self.active = active
        self._say(f"{job.id}: running {request.figure} — "
                  f"{len(ledger.queue)} cell(s) to go, "
                  f"{len(ledger.resumed)} already done")
        return True

    def _dispatch(self) -> bool:
        active = self.active
        progress = False
        now = time.monotonic()
        for worker in list(self.workers.values()):
            if worker.lost or worker.inflight is not None:
                continue
            started = active.ledger.start_next(worker=worker.id)
            if started is None:
                break
            spec, attempt = started
            worker.inflight = (active.job.id, spec.key, attempt)
            worker.assigned_at = now
            active.inflight[spec.key] = worker.id
            self._count("dispatched")
            try:
                worker.channel.send(protocol.assign(
                    active.job.id, spec.key, spec.to_dict(), attempt))
            except ChannelClosed:
                self._lose_worker(worker, "send failed",
                                  event="worker_lost")
                continue
            progress = True
        return progress

    def _finalize(self) -> None:
        active = self.active
        self.active = None
        active.journal.close()
        job = active.job
        quarantined = sorted(o.key for o in active.ledger.quarantined)
        if quarantined:
            keys = ", ".join(quarantined)
            self.queue.update(
                job.id, "failed",
                error=f"{len(quarantined)} cell(s) quarantined: {keys}")
            self._count("jobs_failed")
            self._say(f"{job.id}: FAILED — {len(quarantined)} "
                      f"cell(s) quarantined ({keys}); journal: "
                      f"{active.journal_path}")
            return
        try:
            active.request.finalize(active.journal_path)
        except Exception as exc:   # artifact write / reload failure
            self.queue.update(job.id, "failed",
                              error=f"finalize failed: {exc}")
            self._count("jobs_failed")
            self._say(f"{job.id}: finalize FAILED: {exc}")
            return
        self.queue.update(job.id, "done")
        self._count("jobs_completed")
        progress = active.progress()
        self._say(f"{job.id}: done — {progress['done']} cell(s) "
                  f"({progress['resumed']} resumed); artifacts in "
                  f"{active.request.out_dir}/")

    # ------------------------------------------------------------ status
    def status(self) -> Dict:
        """A JSON-friendly snapshot for ``repro status``."""
        now = time.monotonic()
        jobs = []
        for job_id in self.queue._order:
            job = self.queue.jobs[job_id]
            entry = {"id": job.id, "status": job.status,
                     "figure": job.request.get("figure"),
                     "error": job.error}
            if self.active is not None and self.active.job.id == job.id:
                entry.update(self.active.progress())
            jobs.append(entry)
        workers = []
        for worker in self.workers.values():
            workers.append({
                "id": worker.id, "pid": worker.pid, "epoch": worker.epoch,
                "lost": worker.lost, "lost_reason": worker.lost_reason,
                "completed": worker.completed,
                "inflight": worker.inflight[1] if worker.inflight else None,
                "heartbeat_age": round(now - worker.last_seen, 3),
            })
        return {
            "address": self.listener.address,
            "draining": self._draining,
            "queue": self.queue.counts(),
            "jobs": jobs,
            "workers": workers,
            "counters": dict(self.counters),
        }
