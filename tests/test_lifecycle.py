"""The cell lifecycle (`repro.experiments.lifecycle`): every interleaving
of lifecycle events with a crash after every journal record, identical
journals from the local harness and the service, and the rule that only
the lifecycle module writes cell records."""

import copy
import json
import os
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.durability.io_layer import RealIO, io_scope
from repro.experiments.harness import SweepRunner
from repro.experiments.journal import SweepJournal
from repro.experiments.lifecycle import DETERMINISTIC_KINDS, CellLedger
from repro.experiments.workers import CellSpec, run_cell, run_ledger
from repro.invariants import InvariantViolation
from repro.service import Coordinator, InProcTransport, ServiceWorker

KINDS = ("error", "timeout", "crashed", "violation", "oom")
#: The kinds a coordinator infers from a stalled or lost worker; every
#: other kind is the attempt's own report.
PRESUMED = ("timeout", "crashed")
RESULT = {"elapsed": 1.0}        # a result encoding; its content is moot


class _NoSync(RealIO):
    """Real files without fsync: these tests are about records."""

    def fsync(self, handle):
        pass

    def fsync_dir(self, directory):
        pass


def _cells_of(text):
    records = [json.loads(line) for line in text.split("\n") if line]
    return [record for record in records if record["kind"] == "cell"]


def _check_records(records, final=("done", "quarantined")):
    """At most one ``done`` per key, and no record after a ``final`` one
    (a resume re-runs quarantined cells, so only ``done`` is final
    across one)."""
    closed, done = set(), set()
    for record in records:
        key = record["key"]
        assert key not in closed, f"record after terminal: {record}"
        if record["status"] in final:
            closed.add(key)
        if record["status"] == "done":
            assert key not in done, f"second done: {record}"
            done.add(key)


# ---------------------------------------------------------- interleavings
class _Model:
    """What the rules predict for one cell."""

    def __init__(self):
        self.running = None      # attempt in flight
        self.last = 0            # newest attempt started or queued
        self.terminal = None     # "done" | "quarantined"
        self.done_attempt = None
        self.failures = []       # (attempt, kind)
        self.dup_sent = self.late_sent = False

    def status(self):
        if self.terminal:
            return self.terminal
        if self.running is not None:
            return "running"
        return "failed" if self.failures else "pending"

    def salvageable(self, attempt):
        """A late ``done`` of ``attempt`` completes the cell."""
        return self.terminal is None and any(
            failed == attempt and kind in PRESUMED
            for failed, kind in self.failures)

    def key(self):
        presumed = tuple(attempt for attempt, kind in self.failures
                         if kind in PRESUMED)
        deterministic = any(kind in DETERMINISTIC_KINDS
                            for _, kind in self.failures)
        return (self.running, self.last, self.terminal, len(self.failures),
                presumed, deterministic, self.dup_sent, self.late_sent)


class _Explorer:
    """Model-checks a ledger: every transition out of every reachable
    state, with a crash and a resume after every appended record.

    Two event orders that reach the same state are explored once past
    it. That still covers every order, because each check depends only
    on the state before a transition and the records it appends.
    """

    def __init__(self, tmp_path, keys, retries):
        self.tmp = tmp_path
        self.retries = retries
        self.specs = [CellSpec(task="select", arch=arch, num_disks=2,
                               scale=1 / 1024) for arch in keys]
        self.keys = [spec.key for spec in self.specs]
        self.resumed_folds = set()
        self.states = 0

    def run(self):
        path = str(self.tmp / "root.jsonl")
        journal = SweepJournal.load(path)
        ledger = CellLedger(self.specs, journal, retries=self.retries,
                            backoff=0.0)
        journal.close()
        ledger.journal = None
        models = {key: _Model() for key in self.keys}
        queue = [(key, 0) for key in self.keys]
        stack = [(ledger, Path(path).read_text(), models, queue)]
        seen = set()
        while stack:
            ledger, text, models, queue = stack.pop()
            state = (tuple(queue),
                     tuple(models[key].key() for key in self.keys))
            if state in seen:
                continue
            seen.add(state)
            self.states += 1
            for action in self._actions(models, queue):
                stack.append(self._step(ledger, text, models, queue, action))

    def _actions(self, models, queue):
        actions = [("start", None, None)] if queue else []
        for key, model in models.items():
            if model.running is not None:
                actions.append(("done", key, None))
                actions += [("fail", key, kind) for kind in KINDS]
            if model.terminal == "done" and not model.dup_sent:
                actions.append(("dup", key, None))
            if model.last >= 1 and not model.late_sent:
                actions.append(("late", key, None))
        return actions

    def _step(self, ledger, text, models, queue, action):
        """Apply ``action`` to a copy of the state; check; crash."""
        path = self.tmp / "edge.jsonl"
        path.write_text(text)
        ledger = copy.deepcopy(ledger)
        ledger.journal = SweepJournal.load(str(path))
        models = copy.deepcopy(models)
        queue = list(queue)
        verb, key, kind = action
        model = models.get(key)
        if verb == "start":
            key, attempt = queue.pop(0)
            spec, started = ledger.start_next()
            assert (spec.key, started) == (key, attempt)
            models[key].running = models[key].last = attempt
        elif verb == "done":
            assert ledger.done(key, model.running, RESULT)
            model.done_attempt, model.running = model.running, None
            model.terminal = "done"
        elif verb == "fail":
            attempt, model.running = model.running, None
            model.failures.append((attempt, kind))
            violation = {"invariant": "x"} if kind == "violation" else None
            retry = ledger.failed(key, attempt, f"Boom: {kind}", kind,
                                  violation=violation,
                                  presumed=kind in PRESUMED)
            expected = (kind not in DETERMINISTIC_KINDS
                        and attempt < self.retries)
            assert retry == expected
            if retry:
                queue.append((key, attempt + 1))
                model.last = attempt + 1
            else:
                model.terminal = "quarantined"
        elif verb == "dup":
            model.dup_sent = True
            assert not ledger.done(key, model.done_attempt, RESULT)
        else:   # a late done from the attempt before the newest one
            model.late_sent = True
            earlier = model.last - 1
            salvage = model.salvageable(earlier)
            assert ledger.done(key, earlier, RESULT) == salvage
            if salvage:
                model.running, model.terminal = None, "done"
                model.done_attempt = earlier
                queue = [item for item in queue if item[0] != key]
        ledger.journal.close()
        after = path.read_text()
        self._check(ledger, after, models, queue)
        new = [line for line in after[len(text):].split("\n") if line]
        for index in range(1, len(new) + 1):
            self._crash(text + "".join(line + "\n" for line in new[:index]))
        ledger.journal = None
        return ledger, after, models, queue

    def _check(self, ledger, text, models, queue):
        records = _cells_of(text)
        _check_records(records)
        fold = SweepJournal.load(str(self.tmp / "edge.jsonl"))
        statuses = {key: cell.status for key, cell in fold.cells.items()}
        assert ledger.states == statuses
        assert statuses == {key: m.status() for key, m in models.items()}
        assert [(key, attempt) for key, attempt, _ in ledger.queue] == queue
        quarantined = sum(record["status"] == "quarantined"
                          for record in records)
        assert quarantined == sum(
            any(kind in DETERMINISTIC_KINDS for _, kind in m.failures)
            or len(m.failures) == self.retries + 1
            for m in models.values())

    def _crash(self, text):
        """Power loss right after the last record of ``text``: a fresh
        ledger over the reloaded journal completes every cell once."""
        path = self.tmp / "crash.jsonl"
        path.write_text(text)
        journal = SweepJournal.load(str(path))
        fold = {key: cell.status for key, cell in journal.cells.items()}
        signature = tuple(sorted(fold.items()))
        if signature in self.resumed_folds:
            return
        self.resumed_folds.add(signature)
        ledger = CellLedger(self.specs, journal, retries=self.retries,
                            backoff=0.0)
        assert ledger.states == fold
        assert set(ledger.resumed) == {key for key, status in fold.items()
                                       if status == "done"}
        while (started := ledger.start_next()) is not None:
            spec, attempt = started
            assert spec.key not in ledger.resumed
            assert ledger.done(spec.key, attempt, RESULT)
        journal.close()
        assert ledger.states == {key: "done" for key in self.keys}
        _check_records(_cells_of(path.read_text()), final=("done",))
        assert SweepJournal.load(str(path)).counts()["done"] == len(self.keys)


class TestInterleavings:
    @pytest.mark.parametrize("keys,retries,states", [
        (("active",), 0, 7), (("active",), 1, 31),
        (("active", "cluster"), 0, 43), (("active", "cluster"), 1, 919)])
    def test_every_order_with_a_crash_after_every_record(
            self, tmp_path, keys, retries, states):
        explorer = _Explorer(tmp_path, keys, retries)
        with io_scope(_NoSync()):
            explorer.run()
        assert explorer.states == states


# --------------------------------------------- local/service parity
GRID = {"figure": "fig1", "sizes": [2], "tasks": ["select"],
        "scale": 1 / 1024}


def _grid_cell(marks):
    """active fails once, cluster always raises, smp violates."""
    def cell(spec):
        if spec.arch == "cluster":
            raise RuntimeError(f"always broken: {spec.key}")
        if spec.arch == "smp":
            raise InvariantViolation("drive.0", "byte-conservation", 0.5,
                                     expected={"bytes": 2},
                                     observed={"bytes": 1})
        mark = os.path.join(marks, spec.arch)
        if not os.path.exists(mark):
            open(mark, "w").close()
            raise RuntimeError(f"flaky once: {spec.key}")
        return run_cell(spec)
    return cell


def _sequences(path):
    """Each key's (status, attempt, error) records, ``worker`` ignored."""
    out = {}
    for record in _cells_of(Path(path).read_text()):
        out.setdefault(record["key"], []).append(
            (record["status"], record.get("attempt"), record.get("error")))
    return out


def _local(tmp_path, monkeypatch, jobs):
    import repro.experiments.harness as harness
    from repro.service import SweepRequest

    marks = tmp_path / f"marks-local{jobs}"
    marks.mkdir()
    cell = _grid_cell(str(marks))

    def with_grid_cells(ledger, **kwargs):
        return run_ledger(ledger, **dict(kwargs, cell_fn=cell))

    monkeypatch.setattr(harness, "run_ledger", with_grid_cells)
    path = str(tmp_path / f"local{jobs}.journal.jsonl")
    runner = SweepRunner(path, jobs=jobs, retries=1, backoff=0.0,
                         strict=False)
    runner.run(SweepRequest.from_dict(GRID).cells())
    return _sequences(path)


def _service(tmp_path):
    marks = tmp_path / "marks-service"
    marks.mkdir()
    transport = InProcTransport()
    coordinator = Coordinator(str(tmp_path / "state"),
                              transport.listen("coord"),
                              out_dir=str(tmp_path / "out"),
                              retries=1, backoff=0.0)
    worker = ServiceWorker(transport.connect("coord"), "t1",
                           heartbeat_interval=0.05,
                           cell_fn=_grid_cell(str(marks)))
    thread = threading.Thread(target=worker.run, daemon=True)
    thread.start()
    job = coordinator.submit(GRID)
    deadline = time.monotonic() + 60.0
    while coordinator.queue.jobs[job.id].status not in ("done", "failed"):
        if not coordinator.step():
            time.sleep(0.002)
        assert time.monotonic() < deadline, "coordinator stalled"
    coordinator.close()
    thread.join(3.0)
    return _sequences(coordinator.journal_path_for(job.id))


class TestJournalParity:
    def test_inline_pool_and_service_journal_alike(self, tmp_path,
                                                   monkeypatch):
        inline = _local(tmp_path, monkeypatch, jobs=1)
        assert inline["select:active:2:base"] == [
            ("pending", None, None), ("running", 0, None),
            ("failed", 0, "RuntimeError: flaky once: select:active:2:base"),
            ("running", 1, None), ("done", 1, None)]
        assert [status for status, _, _ in inline["select:smp:2:base"]] \
            == ["pending", "running", "failed", "quarantined"]
        assert [status for status, _, _ in inline["select:cluster:2:base"]] \
            == ["pending", "running", "failed", "running", "failed",
                "quarantined"]
        if "fork" in __import__("multiprocessing").get_all_start_methods():
            assert _local(tmp_path, monkeypatch, jobs=2) == inline
        assert _service(tmp_path) == inline


# ---------------------------------------------------------- structure
def test_only_the_lifecycle_module_writes_cell_records():
    root = Path(repro.__file__).parent
    writers = sorted(path.relative_to(root).as_posix()
                     for path in root.rglob("*.py")
                     if ".note_cell(" in path.read_text(encoding="utf-8"))
    assert writers == ["experiments/lifecycle.py"]
