"""Worker reconnect: a dropped connection costs a handshake, not the
work. A completed-but-unsent result survives the reconnect and is
applied under the fresh epoch; a crashed-and-restarted coordinator gets
its workers back without any duplicate journal applications."""

import os
import threading
import time

from repro.experiments.harness import SweepRunner
from repro.experiments.journal import SweepJournal
from repro.experiments.workers import run_cell
from repro.service import (
    ChannelClosed,
    Coordinator,
    InProcTransport,
    ServiceWorker,
    SweepRequest,
)
from repro.service.gauntlet import _done_record_counts

REQUEST = {"figure": "fig1", "sizes": [2], "tasks": ["select"],
           "scale": 1 / 1024}


class _FlakySendChannel:
    """Dies (once) the moment the worker tries to send its first result,
    simulating a connection lost between computing and reporting."""

    def __init__(self, inner):
        self.inner = inner
        self.peer = inner.peer
        self.tripped = False

    def send(self, message):
        if not self.tripped and message.get("kind") == "result":
            self.tripped = True
            self.inner.close()
            raise ChannelClosed(f"{self.peer}: simulated connection loss")
        self.inner.send(message)

    def send_text(self, text):
        self.inner.send_text(text)

    def recv(self, timeout=None):
        return self.inner.recv(timeout)

    def poll(self):
        return self.inner.poll()

    def close(self):
        self.inner.close()


def _run_to_terminal(coordinator, timeout=60.0):
    deadline = time.monotonic() + timeout
    queue = coordinator.queue
    while not (queue.counts()["done"] + queue.counts()["failed"]):
        if not coordinator.step():
            time.sleep(0.002)
        assert time.monotonic() < deadline, "coordinator stalled"


def _inline_artifacts(tmp_path):
    out_dir = str(tmp_path / "inline-out")
    request = SweepRequest.from_dict(dict(REQUEST, out_dir=out_dir))
    request.run_with(SweepRunner(str(tmp_path / "inline.journal.jsonl")))
    return out_dir


def _assert_byte_identical(out_dir, inline_dir):
    for name in ("fig1.txt", "fig1.csv"):
        with open(os.path.join(out_dir, name), "rb") as service_file:
            with open(os.path.join(inline_dir, name), "rb") as inline_file:
                assert service_file.read() == inline_file.read(), name


class TestWorkerReconnect:
    def test_unsent_result_survives_reconnect_under_fresh_epoch(
            self, tmp_path):
        transport = InProcTransport()
        listener = transport.listen("coord")
        coordinator = Coordinator(str(tmp_path / "state"), listener,
                                  out_dir=str(tmp_path / "out"),
                                  retries=2, backoff=0.05)
        flaky = _FlakySendChannel(transport.connect("coord"))
        worker = ServiceWorker(
            flaky, "phoenix", heartbeat_interval=0.05,
            reconnect=lambda: transport.connect("coord", timeout=2.0),
            reconnect_backoff=0.01)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        job = coordinator.submit(REQUEST)
        _run_to_terminal(coordinator)
        coordinator.close()
        thread.join(3.0)

        assert coordinator.queue.jobs[job.id].status == "done"
        assert flaky.tripped, "the simulated send failure never happened"
        assert worker.reconnects >= 1
        journal_path = coordinator.journal_path_for(job.id)
        counts = _done_record_counts(journal_path)
        assert len(counts) == 3, counts
        assert all(count == 1 for count in counts.values()), counts
        journal = SweepJournal.load(journal_path)
        assert journal.reconnects() >= 1
        _assert_byte_identical(str(tmp_path / "out"),
                               _inline_artifacts(tmp_path))

    def test_without_reconnect_factory_worker_exits(self, tmp_path):
        transport = InProcTransport()
        listener = transport.listen("coord")
        coordinator = Coordinator(str(tmp_path / "state"), listener,
                                  out_dir=str(tmp_path / "out"))
        channel = transport.connect("coord")
        worker = ServiceWorker(channel, "mortal", heartbeat_interval=0.05)
        thread = threading.Thread(target=worker.run, daemon=True)
        thread.start()
        deadline = time.monotonic() + 5.0
        while "mortal" not in coordinator.workers:
            coordinator.step()
            assert time.monotonic() < deadline
        coordinator.workers["mortal"].channel.close()
        thread.join(5.0)
        assert not thread.is_alive(), "worker should give up, not spin"
        assert worker.reconnects == 0
        coordinator.close()


def _crash(coordinator):
    """Kill a coordinator the unclean way: no `stop` frames, just the
    listener and every channel yanked (state stays on disk)."""
    coordinator.stop()
    for state in coordinator.workers.values():
        state.channel.close()
    for channel in coordinator._unclassified:
        channel.close()
    if coordinator.active is not None:
        coordinator.active.journal.close()
    coordinator.queue.close()
    coordinator.listener.close()


def _slow_last_cell(spec):
    """The grid's last cell (smp) takes half a second. A worker is sent
    its next cell before its finished one is journaled, so without the
    delay the whole job could finish in the step that applies the first
    result, leaving nothing for the restarted coordinator to resume."""
    if spec.arch == "smp":
        time.sleep(0.5)
    return run_cell(spec)


class TestCoordinatorCrashRestart:
    def test_workers_reconnect_to_restarted_coordinator_exactly_once(
            self, tmp_path):
        transport = InProcTransport()
        listener = transport.listen("coord")
        first = Coordinator(str(tmp_path / "state"), listener,
                            out_dir=str(tmp_path / "out"),
                            retries=2, backoff=0.05)
        workers = []
        threads = []
        for index in range(2):
            worker = ServiceWorker(
                transport.connect("coord"), f"w{index + 1}",
                heartbeat_interval=0.05, cell_fn=_slow_last_cell,
                reconnect=lambda: transport.connect("coord", timeout=2.0),
                reconnect_backoff=0.05, max_reconnects=10)
            thread = threading.Thread(target=worker.run, daemon=True)
            thread.start()
            workers.append(worker)
            threads.append(thread)

        job = first.submit(REQUEST)
        deadline = time.monotonic() + 60.0
        while first.counters["results"] < 1:
            first.step()
            time.sleep(0.002)
            assert time.monotonic() < deadline
        _crash(first)
        done_before = SweepJournal.load(
            first.journal_path_for(job.id)).counts()["done"]
        assert done_before >= 1

        second = Coordinator(str(tmp_path / "state"),
                             transport.listen("coord"),
                             out_dir=str(tmp_path / "out"),
                             retries=2, backoff=0.05)
        assert [j.id for j in second.queue.pending()] == [job.id]
        _run_to_terminal(second)
        second.close()
        for thread in threads:
            thread.join(3.0)

        assert second.queue.jobs[job.id].status == "done"
        journal_path = second.journal_path_for(job.id)
        counts = _done_record_counts(journal_path)
        assert len(counts) == 3, counts
        assert all(count == 1 for count in counts.values()), counts
        assert sum(worker.reconnects for worker in workers) >= 1
        _assert_byte_identical(str(tmp_path / "out"),
                               _inline_artifacts(tmp_path))
