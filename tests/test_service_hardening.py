"""Coordinator hardening: malformed frames quarantine one channel (not
the serve loop), schema-violating results are line noise, admission
control rejects deterministically, epoch fencing and exactly-once
deduplication hold, and the hardening telemetry behaves with and
without a registry."""

import json
import socket as socketlib
import threading
import time

import pytest

from repro.experiments.journal import SweepJournal
from repro.experiments.workers import CellSpec, run_cell
from repro.experiments.artifacts import result_to_dict
from repro.service import (
    Coordinator,
    InProcTransport,
    SocketTransport,
)
from repro.service import protocol
from repro.service.server import submit_request

REQUEST = {"figure": "fig1", "sizes": [2], "tasks": ["select"],
           "scale": 1 / 1024}


@pytest.fixture
def socket_path(tmp_path):
    # AF_UNIX paths are length-limited (~107 bytes); keep it short.
    path = str(tmp_path / "c.sock")
    if len(path) > 100:
        pytest.skip(f"tmp_path too long for AF_UNIX: {path}")
    return path


def _coordinator(tmp_path, transport=None, **kwargs):
    transport = transport or InProcTransport()
    listener = transport.listen("coord")
    kwargs.setdefault("out_dir", str(tmp_path / "out"))
    return Coordinator(str(tmp_path / "state"), listener, **kwargs), transport


def _step_until(coordinator, predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        coordinator.step()
        assert time.monotonic() < deadline, "coordinator never converged"
        time.sleep(0.002)


def _register(coordinator, transport, worker_id):
    """Hand-register a fake worker; returns (channel, epoch)."""
    channel = transport.connect("coord")
    channel.send(protocol.hello(worker_id, 123))
    box = []

    def welcomed():
        message = channel.recv(0)
        if message is not None and message.get("kind") == "welcome":
            box.append(message)
        return bool(box)

    _step_until(coordinator, welcomed)
    return channel, box[0]["epoch"]


def _await_assign(coordinator, channel):
    box = []

    def drain():
        message = channel.recv(0)
        if message is not None and message.get("kind") == "assign":
            box.append(message)
        return bool(box)

    _step_until(coordinator, drain)
    return box[0]


# -------------------------------------------------------- malformed frames
class TestMalformedFrames:
    def test_socket_garbage_frame_does_not_kill_serve_loop(
            self, tmp_path, socket_path):
        """Regression: a garbage line over a real socket must cost one
        channel and one counter, never the coordinator."""
        listener = SocketTransport().listen(socket_path)
        coordinator = Coordinator(str(tmp_path / "state"), listener,
                                  out_dir=str(tmp_path / "out"))
        try:
            raw = socketlib.socket(socketlib.AF_UNIX,
                                   socketlib.SOCK_STREAM)
            raw.connect(socket_path)
            raw.sendall(b"this is definitely not json\n")
            _step_until(coordinator,
                        lambda: coordinator.counters["malformed"] == 1)
            raw.close()
            # The loop is alive: a well-formed status client still works.
            client = SocketTransport().connect(socket_path, timeout=2.0)
            client.send(protocol.status_request())
            reply = []
            _step_until(coordinator,
                        lambda: (reply.append(client.recv(0.01))
                                 or reply[-1] is not None))
            assert reply[-1]["kind"] == "status"
            client.close()
        finally:
            coordinator.close()

    def test_garbage_from_worker_quarantines_only_that_channel(
            self, tmp_path):
        coordinator, transport = _coordinator(tmp_path)
        noisy, _ = _register(coordinator, transport, "noisy")
        quiet, _ = _register(coordinator, transport, "quiet")
        noisy.send_text("{ not json")
        _step_until(coordinator,
                    lambda: coordinator.counters["malformed"] == 1)
        assert coordinator.workers["noisy"].lost
        assert "malformed" in coordinator.workers["noisy"].lost_reason
        assert not coordinator.workers["quiet"].lost
        coordinator.step()          # and the loop keeps stepping happily
        quiet.close()
        coordinator.close()

    def test_schema_violating_result_is_line_noise(self, tmp_path):
        coordinator, transport = _coordinator(tmp_path)
        channel, epoch = _register(coordinator, transport, "broken")
        channel.send({"kind": "result", "job": "job-0001", "key": 7,
                      "attempt": 0, "status": "done", "epoch": epoch})
        _step_until(coordinator,
                    lambda: coordinator.counters["malformed"] == 1)
        assert coordinator.workers["broken"].lost
        fresh, epoch = _register(coordinator, transport, "bogus")
        fresh.send({"kind": "result", "job": "job-0001", "key": "k",
                    "attempt": 0, "status": "sideways", "epoch": epoch})
        _step_until(coordinator,
                    lambda: coordinator.counters["malformed"] == 2)
        assert coordinator.workers["bogus"].lost
        coordinator.close()


# ------------------------------------------------------- admission control
class TestAdmissionControl:
    def test_queue_full_submits_rejected(self, tmp_path):
        coordinator, transport = _coordinator(tmp_path, max_pending=1)
        first = transport.connect("coord")
        first.send(protocol.submit(REQUEST))
        _step_until(coordinator,
                    lambda: coordinator.counters["jobs_submitted"] == 1)
        assert first.recv(1.0)["kind"] == "submitted"
        second = transport.connect("coord")
        second.send(protocol.submit(REQUEST))
        _step_until(coordinator,
                    lambda: coordinator.counters["rejected"] == 1)
        reply = second.recv(1.0)
        assert reply["kind"] == "rejected"
        assert reply["reason"] == "queue-full"
        assert (reply["depth"], reply["limit"]) == (1, 1)
        assert coordinator.queue.open_count() == 1
        coordinator.close()

    def test_drain_rejects_with_shutting_down(self, tmp_path):
        coordinator, transport = _coordinator(tmp_path)
        assert not coordinator.draining
        coordinator.begin_drain()
        assert coordinator.draining
        assert coordinator.status()["draining"]
        client = transport.connect("coord")
        client.send(protocol.submit(REQUEST))
        _step_until(coordinator,
                    lambda: coordinator.counters["rejected"] == 1)
        reply = client.recv(1.0)
        assert reply["kind"] == "rejected"
        assert reply["reason"] == "shutting-down"
        assert coordinator.counters["jobs_submitted"] == 0
        # Status queries keep working during the drain.
        status_client = transport.connect("coord")
        status_client.send(protocol.status_request())
        got = []
        _step_until(coordinator,
                    lambda: (got.append(status_client.recv(0.01))
                             or got[-1] is not None))
        assert got[-1]["kind"] == "status"
        coordinator.close()

    def test_submit_client_sees_shutting_down(self, tmp_path, socket_path):
        """A `repro submit --wait` racing the exit-linger gets a
        deterministic refusal, not a hang."""
        listener = SocketTransport().listen(socket_path)
        coordinator = Coordinator(str(tmp_path / "state"), listener,
                                  out_dir=str(tmp_path / "out"))
        coordinator.begin_drain()
        stop = threading.Event()

        def pump():
            while not stop.is_set():
                if not coordinator.step():
                    time.sleep(0.005)

        thread = threading.Thread(target=pump, daemon=True)
        thread.start()
        try:
            with pytest.raises(ValueError, match="shutting-down"):
                submit_request(socket_path, REQUEST, wait=True,
                               timeout=5.0)
        finally:
            stop.set()
            thread.join(2.0)
            coordinator.close()


# --------------------------------------------- exactly-once and fencing
class TestExactlyOnceAndFencing:
    def test_duplicate_result_dropped_not_reapplied(self, tmp_path):
        coordinator, transport = _coordinator(tmp_path, retries=0)
        channel, epoch = _register(coordinator, transport, "solo")
        job = coordinator.submit(REQUEST)
        assign = _await_assign(coordinator, channel)
        outcome = run_cell(CellSpec.from_dict(assign["spec"]))
        reply = protocol.result(assign["job"], assign["key"],
                                assign["attempt"], "done",
                                result=result_to_dict(outcome),
                                epoch=epoch)
        channel.send(reply)
        channel.send(reply)               # the duplicated frame
        _step_until(coordinator,
                    lambda: coordinator.counters["duplicate"] == 1)
        assert coordinator.counters["results"] == 1
        coordinator.close()
        journal = SweepJournal.load(coordinator.journal_path_for(job.id))
        assert journal.duplicates_dropped() == 1
        assert journal.cells[assign["key"]].status == "done"

    def test_stale_epoch_frames_fenced(self, tmp_path):
        coordinator, transport = _coordinator(tmp_path)
        stale, first_epoch = _register(coordinator, transport, "twice")
        fresh, second_epoch = _register(coordinator, transport, "twice")
        assert second_epoch == first_epoch + 1
        assert coordinator.counters["reconnects"] == 1
        assert coordinator.workers["twice"].epoch == second_epoch
        fresh.send(protocol.heartbeat("twice", epoch=first_epoch))
        _step_until(coordinator,
                    lambda: coordinator.counters["fenced"] == 1)
        assert coordinator.counters["heartbeats"] == 0
        fresh.send(protocol.heartbeat("twice", epoch=second_epoch))
        _step_until(coordinator,
                    lambda: coordinator.counters["heartbeats"] == 1)
        coordinator.close()

    def test_assignment_timeout_never_fails_a_done_cell(self, tmp_path):
        """Worker a's first assignment stalls and comes back to a as
        attempt 1; a then reports attempt 0 done. Later timeouts of the
        abandoned attempt must not touch the finished cell."""
        coordinator, transport = _coordinator(
            tmp_path, retries=2, assign_timeout=0.3, heartbeat_timeout=30.0)
        channels = {name: _register(coordinator, transport, name)
                    for name in ("a", "b", "c")}
        job = coordinator.submit(REQUEST)
        channel, epoch = channels["a"]
        first = _await_assign(coordinator, channel)
        key = first["key"]
        # b and c sit on their cells too, so the job stays open.
        again = _await_assign(coordinator, channel)
        assert (again["key"], again["attempt"]) == (key, 1)
        result = run_cell(CellSpec.from_dict(first["spec"]))
        channel.send(protocol.result(first["job"], key, 0, "done",
                                     result=result_to_dict(result),
                                     epoch=epoch))
        _step_until(coordinator,
                    lambda: coordinator.queue.jobs[job.id].status
                    in ("done", "failed"))
        coordinator.close()
        path = coordinator.journal_path_for(job.id)
        with open(path, encoding="utf-8") as handle:
            records = [json.loads(line) for line in handle]
        statuses = [record["status"] for record in records
                    if record["kind"] == "cell" and record["key"] == key]
        assert statuses.count("done") == 1
        assert statuses[-1] == "done", statuses
        assert SweepJournal.load(path).cells[key].status == "done"

    def test_reregistration_supersedes_previous_channel(self, tmp_path):
        coordinator, transport = _coordinator(tmp_path)
        _register(coordinator, transport, "ph")
        state_one = coordinator.workers["ph"]
        _register(coordinator, transport, "ph")
        state_two = coordinator.workers["ph"]
        assert state_two is not state_one
        assert state_one.lost and "superseded" in state_one.lost_reason
        assert not state_two.lost
        # Supersession is not a worker loss (the id is still serving).
        assert coordinator.counters["workers_lost"] == 0
        coordinator.close()


# --------------------------------------------------------------- telemetry
class TestHardeningTelemetry:
    def test_hardening_counters_registered_eagerly(self, tmp_path):
        from repro.telemetry import Telemetry
        telemetry = Telemetry()
        coordinator, _ = _coordinator(tmp_path, telemetry=telemetry)
        names = set(telemetry.registry.names())
        assert {"service.fenced", "service.duplicate", "service.malformed",
                "service.rejected", "service.reconnects"} <= names
        coordinator.close()

    def test_heartbeat_lag_histogram_and_live_gauge(self, tmp_path):
        from repro.telemetry import Telemetry
        telemetry = Telemetry()
        coordinator, transport = _coordinator(
            tmp_path, telemetry=telemetry, heartbeat_timeout=30.0)
        registry = telemetry.registry
        channel, epoch = _register(coordinator, transport, "slow")
        assert registry.gauge("service.workers.live").value == 1
        time.sleep(0.12)                  # one deliberately laggy beat
        channel.send(protocol.heartbeat("slow", epoch=epoch))
        _step_until(coordinator,
                    lambda: coordinator.counters["heartbeats"] == 1)
        lag = registry.histogram("service.heartbeat.lag")
        assert lag.count >= 1
        assert lag.max >= 0.1             # the slow beat was observed
        channel.close()
        _step_until(coordinator,
                    lambda: coordinator.workers["slow"].lost)
        assert registry.gauge("service.workers.live").value == 0
        coordinator.close()

    def test_counters_plain_dict_without_telemetry(self, tmp_path):
        coordinator, transport = _coordinator(tmp_path)
        assert coordinator.telemetry is None
        for name in ("fenced", "duplicate", "malformed", "rejected",
                     "reconnects"):
            assert coordinator.counters[name] == 0
        coordinator.begin_drain()
        client = transport.connect("coord")
        client.send(protocol.submit(REQUEST))
        _step_until(coordinator,
                    lambda: coordinator.counters["rejected"] == 1)
        assert isinstance(coordinator.counters, dict)
        coordinator.close()
