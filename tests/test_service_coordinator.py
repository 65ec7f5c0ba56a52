"""Coordinator scheduling: dispatch, retries, quarantine, heartbeats,
reassignment, resume — all over the in-process transport so every
failure is injected deterministically."""

import os
import threading
import time

import pytest

from repro.experiments.harness import SweepRunner
from repro.experiments.journal import SweepJournal
from repro.experiments.workers import run_cell
from repro.invariants import InvariantViolation
from repro.service import (
    Coordinator,
    InProcTransport,
    ServiceWorker,
    SocketTransport,
    SweepRequest,
)
from repro.service import protocol

REQUEST = {"figure": "fig1", "sizes": [2], "tasks": ["select"],
           "scale": 1 / 1024}


class _Cluster:
    """A coordinator plus threaded in-process workers, stepped to done."""

    def __init__(self, tmp_path, workers=2, cell_fn=run_cell, **kwargs):
        self.transport = InProcTransport()
        listener = self.transport.listen("coord")
        self.state_dir = str(tmp_path / "state")
        kwargs.setdefault("out_dir", str(tmp_path / "out"))
        self.coordinator = Coordinator(self.state_dir, listener, **kwargs)
        self.threads = []
        self.workers = []
        for index in range(workers):
            self.add_worker(f"t{index + 1}", cell_fn=cell_fn)

    def add_worker(self, worker_id, cell_fn=run_cell):
        channel = self.transport.connect("coord")
        worker = ServiceWorker(channel, worker_id,
                               heartbeat_interval=0.05, cell_fn=cell_fn)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        self.workers.append(worker)
        self.threads.append(thread)
        return worker

    def run_until_terminal(self, jobs=1, timeout=120.0):
        deadline = time.monotonic() + timeout
        queue = self.coordinator.queue
        while (queue.counts()["done"] + queue.counts()["failed"]) < jobs:
            if not self.coordinator.step():
                time.sleep(0.002)
            assert time.monotonic() < deadline, "coordinator stalled"

    def close(self):
        self.coordinator.close()
        for thread in self.threads:
            thread.join(3.0)


def _inline_artifacts(tmp_path, request=REQUEST):
    out_dir = str(tmp_path / "inline-out")
    parsed = SweepRequest.from_dict(dict(request, out_dir=out_dir))
    parsed.run_with(SweepRunner(str(tmp_path / "inline.journal.jsonl")))
    return out_dir


# --------------------------------------------------------------- happy path
class TestEndToEnd:
    def test_service_output_byte_identical_to_inline(self, tmp_path):
        cluster = _Cluster(tmp_path)
        job = cluster.coordinator.submit(REQUEST)
        cluster.run_until_terminal()
        cluster.close()
        assert cluster.coordinator.queue.jobs[job.id].status == "done"
        inline = _inline_artifacts(tmp_path)
        for name in ("fig1.txt", "fig1.csv"):
            with open(os.path.join(str(tmp_path / "out"), name), "rb") as a:
                with open(os.path.join(inline, name), "rb") as b:
                    assert a.read() == b.read()

    def test_journal_attributes_cells_to_workers(self, tmp_path):
        cluster = _Cluster(tmp_path)
        job = cluster.coordinator.submit(REQUEST)
        cluster.run_until_terminal()
        cluster.close()
        journal = SweepJournal.load(
            cluster.coordinator.journal_path_for(job.id))
        worker_cells = journal.worker_cells()
        assert sum(worker_cells.values()) == 3      # 3 architectures
        assert set(worker_cells) <= {"t1", "t2"}

    def test_submit_validates_requests(self, tmp_path):
        cluster = _Cluster(tmp_path, workers=0)
        with pytest.raises(ValueError, match="unknown figure"):
            cluster.coordinator.submit({"figure": "fig9"})
        with pytest.raises(ValueError, match="unknown request fields"):
            cluster.coordinator.submit({"figure": "fig1", "shards": 4})
        assert cluster.coordinator.queue.counts()["queued"] == 0
        cluster.close()

    def test_status_snapshot(self, tmp_path):
        cluster = _Cluster(tmp_path)
        cluster.coordinator.submit(REQUEST)
        cluster.run_until_terminal()
        status = cluster.coordinator.status()
        cluster.close()
        assert status["queue"]["done"] == 1
        assert [job["status"] for job in status["jobs"]] == ["done"]
        assert {worker["id"] for worker in status["workers"]} == {"t1", "t2"}
        assert status["counters"]["dispatched"] >= 3
        assert status["counters"]["results"] >= 3


# ----------------------------------------------------------------- failures
class TestFailureHandling:
    def test_flaky_cell_retried_to_success(self, tmp_path):
        flaked = []

        def flaky(spec):
            if spec.key not in flaked:
                flaked.append(spec.key)
                raise RuntimeError(f"transient wobble in {spec.key}")
            return run_cell(spec)

        cluster = _Cluster(tmp_path, workers=1, cell_fn=flaky,
                           retries=1, backoff=0.01)
        job = cluster.coordinator.submit(REQUEST)
        cluster.run_until_terminal()
        cluster.close()
        assert cluster.coordinator.queue.jobs[job.id].status == "done"
        journal = SweepJournal.load(
            cluster.coordinator.journal_path_for(job.id))
        assert journal.counts()["done"] == 3
        assert len(flaked) == 3           # every cell failed exactly once
        assert all(journal.cells[key].failures for key in flaked)

    def test_persistent_failure_quarantines_and_fails_job(self, tmp_path):
        def broken(spec):
            if spec.arch == "smp":
                raise RuntimeError("this architecture is cursed")
            return run_cell(spec)

        cluster = _Cluster(tmp_path, workers=1, cell_fn=broken,
                           retries=1, backoff=0.01)
        job = cluster.coordinator.submit(REQUEST)
        cluster.run_until_terminal()
        cluster.close()
        record = cluster.coordinator.queue.jobs[job.id]
        assert record.status == "failed"
        assert "quarantined" in record.error
        journal = SweepJournal.load(
            cluster.coordinator.journal_path_for(job.id))
        assert journal.counts()["quarantined"] == 1
        assert journal.counts()["done"] == 2

    def test_violation_quarantines_without_retry(self, tmp_path):
        attempts = []

        def violating(spec):
            if spec.arch == "active":
                attempts.append(spec.key)
                raise InvariantViolation(component="disk.0",
                                         invariant="bytes_conserved",
                                         sim_time=1.0, expected=1,
                                         observed=2)
            return run_cell(spec)

        cluster = _Cluster(tmp_path, workers=1, cell_fn=violating,
                           retries=3, backoff=0.01)
        job = cluster.coordinator.submit(REQUEST)
        cluster.run_until_terminal()
        cluster.close()
        assert cluster.coordinator.queue.jobs[job.id].status == "failed"
        assert len(attempts) == 1          # deterministic: never retried
        journal = SweepJournal.load(
            cluster.coordinator.journal_path_for(job.id))
        [cell] = journal.violated().values()
        assert cell.violation["invariant"] == "bytes_conserved"


# --------------------------------------------------------------- liveness
class _SilentWorker:
    """Says hello, heartbeats until assigned a cell, then plays dead."""

    def __init__(self, transport, worker_id="zombie"):
        self.channel = transport.connect("coord")
        self.worker_id = worker_id
        self.assigned = threading.Event()
        self.thread = threading.Thread(target=self._run, daemon=True)
        self.thread.start()

    def _run(self):
        self.channel.send(protocol.hello(self.worker_id, 0))
        while not self.assigned.is_set():
            message = self.channel.recv(0.02)
            if message is not None and message.get("kind") == "assign":
                self.assigned.set()     # swallow the cell, stop beating
                return
            self.channel.send(protocol.heartbeat(self.worker_id))


class TestHeartbeatReassignment:
    def test_silent_worker_loses_cell_to_survivor(self, tmp_path):
        cluster = _Cluster(tmp_path, workers=0,
                           retries=1, backoff=0.01,
                           heartbeat_timeout=0.3)
        zombie = _SilentWorker(cluster.transport)
        # Let the coordinator register the zombie first so it gets the
        # first assignment, then bring up the survivor.
        deadline = time.monotonic() + 5.0
        while "zombie" not in cluster.coordinator.workers:
            cluster.coordinator.step()
            assert time.monotonic() < deadline
        cluster.add_worker("survivor")
        job = cluster.coordinator.submit(REQUEST)
        cluster.run_until_terminal()
        cluster.close()
        zombie.thread.join(3.0)
        assert zombie.assigned.is_set(), "zombie never got a cell"
        assert cluster.coordinator.queue.jobs[job.id].status == "done"
        state = cluster.coordinator.workers["zombie"]
        assert state.lost and "heartbeat" in state.lost_reason
        journal = SweepJournal.load(
            cluster.coordinator.journal_path_for(job.id))
        assert journal.heartbeat_losses() == 1
        assert journal.reassignments() == 1
        assert journal.counts()["done"] == 3
        assert set(journal.worker_cells()) == {"survivor"}
        assert cluster.coordinator.counters["workers_lost"] == 1
        assert cluster.coordinator.counters["reassigned"] == 1

    def test_results_byte_identical_despite_reassignment(self, tmp_path):
        cluster = _Cluster(tmp_path, workers=0,
                           retries=1, backoff=0.01, heartbeat_timeout=0.3)
        _SilentWorker(cluster.transport)
        deadline = time.monotonic() + 5.0
        while "zombie" not in cluster.coordinator.workers:
            cluster.coordinator.step()
            assert time.monotonic() < deadline
        cluster.add_worker("survivor")
        cluster.coordinator.submit(REQUEST)
        cluster.run_until_terminal()
        cluster.close()
        inline = _inline_artifacts(tmp_path)
        for name in ("fig1.txt", "fig1.csv"):
            with open(os.path.join(str(tmp_path / "out"), name), "rb") as a:
                with open(os.path.join(inline, name), "rb") as b:
                    assert a.read() == b.read()


# ------------------------------------------------------------------ resume
def _slow_last_cell(spec):
    """The grid's last cell (smp) takes half a second. A worker is sent
    its next cell before its finished one is journaled, so without the
    delay that cell's result could land in the very step that applies
    the first one, and a coordinator stopped there would have no cell
    left to resume."""
    if spec.arch == "smp":
        time.sleep(0.5)
    return run_cell(spec)


class TestCoordinatorResume:
    def test_killed_coordinator_resumes_bit_identically(self, tmp_path):
        cluster = _Cluster(tmp_path, cell_fn=_slow_last_cell)
        job = cluster.coordinator.submit(REQUEST)
        # Run until the first result lands, then "crash" the coordinator
        # (close releases files; the abandoned state is all on disk).
        deadline = time.monotonic() + 60.0
        while cluster.coordinator.counters["results"] < 1:
            cluster.coordinator.step()
            time.sleep(0.002)
            assert time.monotonic() < deadline
        cluster.close()
        done_before = SweepJournal.load(
            cluster.coordinator.journal_path_for(job.id)).counts()["done"]
        assert 1 <= done_before < 3

        second = _Cluster(tmp_path, workers=1)
        assert [j.id for j in second.coordinator.queue.pending()] == [job.id]
        second.run_until_terminal()
        second.close()
        assert second.coordinator.queue.jobs[job.id].status == "done"
        assert second.coordinator.counters["resumed_cells"] == done_before
        journal = SweepJournal.load(
            second.coordinator.journal_path_for(job.id))
        assert journal.counts()["done"] == 3
        inline = _inline_artifacts(tmp_path)
        for name in ("fig1.txt", "fig1.csv"):
            with open(os.path.join(str(tmp_path / "out"), name), "rb") as a:
                with open(os.path.join(inline, name), "rb") as b:
                    assert a.read() == b.read()

    def test_job_journal_finishes_with_plain_resume(self, tmp_path, capsys):
        """docs/SERVICE.md: a job journal "also works with plain
        ``repro resume``" — only the unfinished cells run again."""
        from repro.cli import main

        cluster = _Cluster(tmp_path, cell_fn=_slow_last_cell)
        job = cluster.coordinator.submit(REQUEST)
        deadline = time.monotonic() + 60.0
        while cluster.coordinator.counters["results"] < 1:
            cluster.coordinator.step()
            time.sleep(0.002)
            assert time.monotonic() < deadline
        cluster.close()
        journal_path = cluster.coordinator.journal_path_for(job.id)
        done_before = SweepJournal.load(journal_path).counts()["done"]
        assert 1 <= done_before < 3

        resumed = str(tmp_path / "resumed")
        capsys.readouterr()
        assert main(["resume", journal_path, "--out-dir", resumed]) == 0
        out = capsys.readouterr().out
        assert f"resumed_cells={done_before}," in out
        assert f"completed={3 - done_before}" in out
        assert SweepJournal.load(journal_path).counts()["done"] == 3
        inline = _inline_artifacts(tmp_path)
        for name in ("fig1.txt", "fig1.csv"):
            with open(os.path.join(resumed, name), "rb") as a:
                with open(os.path.join(inline, name), "rb") as b:
                    assert a.read() == b.read()


# --------------------------------------------------------------- telemetry
class TestTelemetry:
    def test_counters_mirrored_into_registry(self, tmp_path):
        from repro.telemetry import Telemetry
        telemetry = Telemetry()
        cluster = _Cluster(tmp_path, telemetry=telemetry)
        # The whole service.* subtree exists (at zero) before any work.
        names = set(telemetry.registry.names())
        assert {"service.jobs.submitted", "service.dispatched",
                "service.results", "service.reassigned",
                "service.workers.lost", "service.heartbeats",
                "service.queue.depth", "service.workers.live",
                "service.heartbeat.lag"} <= names
        cluster.coordinator.submit(REQUEST)
        cluster.run_until_terminal()
        # Step a little longer so idle-worker heartbeats get pumped too.
        deadline = time.monotonic() + 5.0
        while (cluster.coordinator.counters["heartbeats"] < 1
               and time.monotonic() < deadline):
            cluster.coordinator.step()
            time.sleep(0.01)
        cluster.close()
        registry = telemetry.registry
        assert registry.counter("service.jobs.submitted").value == 1
        assert registry.counter("service.jobs.completed").value == 1
        assert (registry.counter("service.dispatched").value
                == cluster.coordinator.counters["dispatched"])
        assert registry.counter("service.heartbeats").value >= 1

    def test_no_telemetry_means_plain_dict_counters(self, tmp_path):
        cluster = _Cluster(tmp_path, workers=0)
        assert cluster.coordinator.telemetry is None
        assert cluster.coordinator.counters["jobs_submitted"] == 0
        cluster.close()


# ---------------------------------------------------------- idle wait
class TestReadinessWait:
    """An idle coordinator wakes on a dial or a frame, not on a timer."""

    @pytest.mark.parametrize("kind", ["inproc", "socket"])
    def test_serve_forever_answers_a_result_at_once(self, tmp_path, kind):
        if kind == "inproc":
            transport, address = InProcTransport(), "coord"
        else:
            transport, address = SocketTransport(), str(tmp_path / "c.sock")
            if len(address) > 100:
                pytest.skip(f"tmp_path too long for AF_UNIX: {address}")
        coordinator = Coordinator(str(tmp_path / "state"),
                                  transport.listen(address),
                                  out_dir=str(tmp_path / "out"),
                                  heartbeat_timeout=60.0)
        serving = threading.Thread(target=coordinator.serve_forever,
                                   kwargs={"poll_interval": 1.0},
                                   daemon=True)
        serving.start()
        spans = []

        def timed_cell(spec):
            began = time.monotonic()
            result = run_cell(spec)
            spans.append((began, time.monotonic()))
            return result

        # Heartbeats far apart, so only dials and results wake it.
        worker = ServiceWorker(transport.connect(address, timeout=5.0),
                               "w1", heartbeat_interval=30.0,
                               cell_fn=timed_cell)
        working = threading.Thread(target=worker.run, daemon=True)
        working.start()
        client = transport.connect(address, timeout=5.0)
        client.send(protocol.submit(REQUEST))
        reply = client.recv(5.0)
        client.close()
        deadline = time.monotonic() + 30.0
        while len(spans) < 3 and time.monotonic() < deadline:
            time.sleep(0.01)
        coordinator.stop()
        serving.join(5.0)
        coordinator.close()
        working.join(5.0)
        assert reply["kind"] == "submitted"
        assert len(spans) == 3
        # Result in, next assignment out: well inside the 1 s interval.
        gaps = [began - ended for (_, ended), (began, _)
                in zip(spans, spans[1:])]
        assert max(gaps) < 0.25, gaps
