"""Interruption and resumption of journaled sweeps.

The harness's core promise: a sweep killed at any point — KeyboardInterrupt,
SIGTERM, a crashing or hanging worker — leaves a loadable journal, and a
subsequent resume re-runs only the incomplete cells yet produces results
bit-identical to a sweep that was never interrupted.
"""

import multiprocessing
import os
import signal
import time

import pytest

from repro.experiments import (
    CellSpec,
    SweepInterrupted,
    SweepRunner,
    resume_sweep,
    run_cell,
    run_cells,
)
from repro.experiments.journal import SweepJournal

SPECS = [
    CellSpec(task=task, arch=arch, num_disks=2, scale=1 / 1024)
    for arch in ("active", "cluster", "smp")
    for task in ("select", "groupby")
]


def _uninterrupted_results():
    return SweepRunner(None).run(SPECS)


# ------------------------------------------------------------ interruption
class TestInterruption:
    def _interrupt_after(self, count, raiser):
        state = {"seen": 0}

        def after_cell(outcome):
            state["seen"] += 1
            if state["seen"] == count:
                raiser()
        return after_cell

    def _check_resume(self, journal_path, interrupted_count):
        journal = SweepJournal.load(journal_path)
        assert len(journal.done()) == interrupted_count
        # Every journaled record survived the interruption intact.
        assert journal.torn_lines == 0
        runner = SweepRunner(journal_path)
        resumed = runner.run(SPECS)
        assert runner.counters["resumed_cells"] == interrupted_count
        assert runner.counters["completed"] == len(SPECS) - interrupted_count
        baseline = _uninterrupted_results()
        assert set(resumed) == set(baseline)
        for key in baseline:
            assert resumed[key] == baseline[key]   # bit-identical

    def test_keyboard_interrupt_leaves_valid_journal(self, tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")

        def raise_interrupt():
            raise KeyboardInterrupt

        runner = SweepRunner(path)
        with pytest.raises(SweepInterrupted) as excinfo:
            runner.run(SPECS,
                       after_cell=self._interrupt_after(3, raise_interrupt))
        assert excinfo.value.journal_path == path
        self._check_resume(path, 3)

    def test_sigterm_mid_sweep_then_resume(self, tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")

        def send_sigterm():
            os.kill(os.getpid(), signal.SIGTERM)

        runner = SweepRunner(path)
        with pytest.raises(SweepInterrupted):
            runner.run(SPECS,
                       after_cell=self._interrupt_after(2, send_sigterm))
        self._check_resume(path, 2)

    def test_sigterm_handler_restored(self, tmp_path):
        previous = signal.getsignal(signal.SIGTERM)
        runner = SweepRunner(str(tmp_path / "j.jsonl"))
        runner.run(SPECS[:1])
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_resume_sweep_from_journal_alone(self, tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")
        runner = SweepRunner(path, meta={"purpose": "test"})
        with pytest.raises(SweepInterrupted):
            runner.run(SPECS, after_cell=self._interrupt_after(
                1, lambda: (_ for _ in ()).throw(KeyboardInterrupt())))
        # No spec list this time: everything comes from the journal.
        meta, results = resume_sweep(path)
        assert meta == {"purpose": "test"}
        baseline = _uninterrupted_results()
        assert results == baseline

    def test_resume_empty_journal_rejected(self, tmp_path):
        path = tmp_path / "empty.journal.jsonl"
        path.write_text("")
        with pytest.raises(ValueError, match="no journaled cells"):
            resume_sweep(str(path))


# ------------------------------------------------------- staleness handling
class TestConfigHashStaleness:
    def test_changed_cell_config_reruns(self, tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")
        spec = SPECS[0]
        SweepRunner(path).run([spec])
        changed = CellSpec(task=spec.task, arch=spec.arch,
                           num_disks=spec.num_disks, scale=spec.scale,
                           memory_mb=64)   # same key, different config
        assert changed.key == spec.key
        runner = SweepRunner(path)
        runner.run([changed])
        assert runner.counters["resumed_cells"] == 0
        assert runner.counters["completed"] == 1

    def test_duplicate_keys_rejected(self, tmp_path):
        runner = SweepRunner(str(tmp_path / "j.jsonl"))
        with pytest.raises(ValueError, match="duplicate"):
            runner.run([SPECS[0], SPECS[0]])


# --------------------------------------------------------- worker failures
def _boom_cell(spec):
    raise RuntimeError(f"boom on {spec.key}")


def _hang_cell(spec):
    time.sleep(60)


def _patch_cell_fn(monkeypatch, cell_fn):
    """Make SweepRunner use ``cell_fn`` instead of the real simulation."""
    import repro.experiments.harness as harness_mod
    original = harness_mod.run_ledger

    def patched(ledger, **kwargs):
        kwargs["cell_fn"] = cell_fn
        return original(ledger, **kwargs)

    monkeypatch.setattr(harness_mod, "run_ledger", patched)


class TestFailureContainment:
    def test_failing_cell_is_quarantined_not_fatal(self):
        outcomes = run_cells(SPECS[:2], retries=1, backoff=0.0,
                             cell_fn=_boom_cell)
        assert [o.status for o in outcomes] == ["quarantined"] * 2
        assert all(o.attempts == 2 for o in outcomes)
        assert "boom" in outcomes[0].error

    def test_runner_counts_and_journals_quarantine(self, tmp_path,
                                                   monkeypatch):
        path = str(tmp_path / "j.jsonl")
        runner = SweepRunner(path, retries=2, backoff=0.0, strict=False)
        _patch_cell_fn(monkeypatch, _boom_cell)
        results = runner.run(SPECS[:1])
        assert results == {}
        assert runner.counters["quarantined"] == 1
        assert runner.counters["retries"] == 2
        journal = SweepJournal.load(path)
        cell = journal.cells[SPECS[0].key]
        assert cell.status == "quarantined"
        assert "boom" in cell.error
        assert len(cell.failures) == 4   # 3 failed attempts + quarantine

    def test_strict_mode_raises_after_completing_sweep(self, monkeypatch):
        runner = SweepRunner(None, retries=0, strict=True)
        _patch_cell_fn(monkeypatch, _boom_cell)
        with pytest.raises(RuntimeError, match="quarantined"):
            runner.run(SPECS[:2])
        # both cells were attempted before the sweep-level failure
        assert runner.counters["quarantined"] == 2

    def test_telemetry_mirrors_harness_counters(self, monkeypatch):
        from repro.telemetry import Telemetry
        telemetry = Telemetry(sample_interval=None)
        runner = SweepRunner(None, retries=1, backoff=0.0, strict=False,
                             telemetry=telemetry)
        _patch_cell_fn(monkeypatch, _boom_cell)
        runner.run(SPECS[:1])
        registry = telemetry.registry
        assert registry.counter("harness.quarantined").value == 1
        assert registry.counter("harness.retries").value == 1


class _LateFirstPoll:
    """A pool pipe end whose first ``poll()`` runs just before the
    worker sends its result and exits: it waits for the worker to finish
    but reports no data, as a real poll racing the exit would."""

    def __init__(self, conn):
        self._conn = conn
        self.proc = None
        self._polled = False

    def poll(self, timeout=0.0):
        if not self._polled:
            self._polled = True
            self.proc.join()
            return False
        return self._conn.poll(timeout)

    def recv(self):
        return self._conn.recv()

    def fileno(self):
        return self._conn.fileno()

    def close(self):
        self._conn.close()


class _KilledAfterResult(_LateFirstPoll):
    """A pool pipe end whose first ``poll()`` waits for the worker's
    result, then SIGKILLs the worker and reports no data: a worker that
    would be reused dies right after sending ``ok``."""

    def poll(self, timeout=0.0):
        if not self._polled:
            self._polled = True
            assert self._conn.poll(30.0), "the worker sent no result"
            self.proc.kill()
            self.proc.join(30.0)
            return False
        return self._conn.poll(timeout)


class _LatePollContext:
    """A multiprocessing context stand-in handing out late-poll pipes."""

    def __init__(self, ctx, end=_LateFirstPoll):
        self._ctx = ctx
        self._end = end
        self._parent = None

    def Pipe(self, duplex=True):
        parent, child = self._ctx.Pipe(duplex=duplex)
        self._parent = self._end(parent)
        return self._parent, child

    def Process(self, **kwargs):
        proc = self._ctx.Process(**kwargs)
        self._parent.proc = proc
        return proc


def _note_attempt(marks, spec):
    with open(marks, "a", encoding="utf-8") as handle:
        handle.write(f"{spec.key} {os.getpid()}\n")


def _attempt_pids(marks):
    """(key, pid) per attempt, in the order the attempts began."""
    if not os.path.exists(marks):
        return []
    with open(marks, encoding="utf-8") as handle:
        return [tuple(line.split()) for line in handle]


def _recording_pids(marks):
    """A cell that notes ``key pid`` in ``marks``, then runs for real."""
    def cell(spec):
        _note_attempt(marks, spec)
        return run_cell(spec)
    return cell


def _failing_first_attempts(marks, kinds):
    """A recording cell whose first attempt of each key in ``kinds``
    fails that way: ``error`` raises, ``crashed`` SIGKILLs its worker,
    ``timeout`` hangs."""
    def cell(spec):
        first = all(key != spec.key for key, _ in _attempt_pids(marks))
        _note_attempt(marks, spec)
        kind = kinds.get(spec.key) if first else None
        if kind == "error":
            raise RuntimeError(f"first attempt of {spec.key} fails")
        if kind == "crashed":
            os.kill(os.getpid(), signal.SIGKILL)
        if kind == "timeout":
            time.sleep(60)
        return run_cell(spec)
    return cell


@pytest.mark.skipif("fork" not in __import__("multiprocessing")
                    .get_all_start_methods(),
                    reason="fork start method required")
class TestProcessIsolation:
    def test_result_sent_just_before_exit_is_kept(self, monkeypatch):
        # The worker sends its result and exits between the supervisor's
        # poll and its liveness check; the result must still count. A
        # worker under a memory budget exits after each cell, so the
        # budget makes the exit real.
        import repro.experiments.workers as workers_mod
        ctx = workers_mod._mp_context("fork")
        monkeypatch.setattr(workers_mod, "_mp_context",
                            lambda name=None: _LatePollContext(ctx))
        outcomes = run_cells(SPECS[:2], jobs=2, retries=0,
                             memory_budget_mb=2048)
        assert [o.status for o in outcomes] == ["done", "done"]
        assert all(o.attempts == 1 for o in outcomes)
        inline = _uninterrupted_results()
        assert {o.key: o.result for o in outcomes} == {
            key: inline[key] for key in (SPECS[0].key, SPECS[1].key)}

    def test_result_sent_just_before_kill_is_kept(self, monkeypatch,
                                                  tmp_path):
        # A worker killed right after sending ``ok`` is not reused: its
        # result counts, and the next cell runs in a replacement.
        import repro.experiments.workers as workers_mod
        ctx = workers_mod._mp_context("fork")
        monkeypatch.setattr(
            workers_mod, "_mp_context",
            lambda name=None: _LatePollContext(ctx, _KilledAfterResult))
        marks = str(tmp_path / "pids")
        outcomes = run_cells(SPECS[:3], jobs=2, retries=0,
                             cell_fn=_recording_pids(marks))
        assert [o.status for o in outcomes] == ["done"] * 3
        assert all(o.attempts == 1 for o in outcomes)
        assert len({pid for _, pid in _attempt_pids(marks)}) == 3
        inline = _uninterrupted_results()
        assert {o.key: o.result for o in outcomes} == {
            spec.key: inline[spec.key] for spec in SPECS[:3]}

    def test_parallel_pool_matches_inline(self):
        inline = _uninterrupted_results()
        outcomes = run_cells(SPECS, jobs=3, mp_context="fork")
        assert all(o.status == "done" for o in outcomes)
        pooled = {o.key: o.result for o in outcomes}
        assert pooled == inline   # across-process bit-identical

    def test_timeout_kills_hung_worker(self):
        began = time.monotonic()
        outcomes = run_cells(SPECS[:1], jobs=1, timeout=0.3, retries=1,
                             backoff=0.0, cell_fn=_hang_cell,
                             mp_context="fork")
        wall = time.monotonic() - began
        assert wall < 30   # nowhere near the 60 s hang
        assert [o.status for o in outcomes] == ["quarantined"]
        assert "timeout" in outcomes[0].error

    def test_worker_crash_is_contained(self):
        def kill_self(spec):
            # SIGKILL bypasses the worker's error channel entirely.
            os.kill(os.getpid(), signal.SIGKILL)

        outcomes = run_cells(SPECS[:1], jobs=1, timeout=10.0, retries=0,
                             cell_fn=kill_self, mp_context="fork")
        assert [o.status for o in outcomes] == ["quarantined"]
        assert "without a result" in outcomes[0].error

    def test_one_poison_cell_does_not_sink_the_sweep(self):
        def poison_first(spec):
            if spec.key == SPECS[0].key:
                raise RuntimeError("poison")
            from repro.experiments import run_cell
            return run_cell(spec)

        outcomes = run_cells(SPECS, jobs=2, retries=0, backoff=0.0,
                             cell_fn=poison_first, mp_context="fork")
        by_key = {o.key: o for o in outcomes}
        assert by_key[SPECS[0].key].status == "quarantined"
        done = [o for o in outcomes if o.status == "done"]
        assert len(done) == len(SPECS) - 1


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="fork start method required")
class TestWorkerReuse:
    """A pooled worker runs cell after cell until an attempt fails."""

    def test_jobs_workers_run_every_cell(self, tmp_path):
        marks = str(tmp_path / "pids")
        outcomes = run_cells(SPECS, jobs=2, mp_context="fork",
                             cell_fn=_recording_pids(marks))
        assert len(_attempt_pids(marks)) == len(SPECS)
        assert len({pid for _, pid in _attempt_pids(marks)}) == 2
        assert {o.key: o.result for o in outcomes} == \
            _uninterrupted_results()

    def test_failed_attempt_retries_in_a_new_worker(self, tmp_path):
        marks = str(tmp_path / "pids")
        kinds = {SPECS[0].key: "error", SPECS[1].key: "crashed",
                 SPECS[2].key: "timeout"}
        failed = []
        outcomes = run_cells(
            SPECS, jobs=2, timeout=3.0, retries=1, backoff=0.0,
            mp_context="fork", cell_fn=_failing_first_attempts(marks, kinds),
            on_attempt_failed=lambda spec, attempt, error, kind:
                failed.append((spec.key, kind)))
        assert sorted(failed) == sorted(kinds.items())
        assert {o.key: o.attempts for o in outcomes} == {
            spec.key: 2 if spec.key in kinds else 1 for spec in SPECS}
        attempts = _attempt_pids(marks)
        for key in kinds:
            retry = max(index for index, (seen, _) in enumerate(attempts)
                        if seen == key)
            assert attempts[retry][1] not in {
                pid for _, pid in attempts[:retry]}
        assert {o.key: o.result for o in outcomes} == \
            _uninterrupted_results()

    def test_memory_budget_keeps_one_cell_per_worker(self, tmp_path):
        marks = str(tmp_path / "pids")
        outcomes = run_cells(SPECS[:4], jobs=2, mp_context="fork",
                             memory_budget_mb=2048,
                             cell_fn=_recording_pids(marks))
        assert [o.status for o in outcomes] == ["done"] * 4
        assert len({pid for _, pid in _attempt_pids(marks)}) == 4

    def test_no_worker_outlives_run_cells(self):
        outcomes = run_cells(SPECS, jobs=2, mp_context="fork")
        assert all(o.status == "done" for o in outcomes)
        assert multiprocessing.active_children() == []

    def test_no_worker_outlives_an_interrupted_run(self, tmp_path):
        def interrupt(outcome):
            raise KeyboardInterrupt

        runner = SweepRunner(str(tmp_path / "j.jsonl"), jobs=2)
        with pytest.raises(SweepInterrupted):
            runner.run(SPECS, after_cell=interrupt)
        assert multiprocessing.active_children() == []

    def test_worker_exits_when_its_supervisor_end_closes(self):
        from repro.experiments.workers import _Running, _spawn
        ctx = multiprocessing.get_context("fork")
        first_proc, first_end = _spawn(ctx, run_cell, SPECS[0], None, [])
        first = _Running(first_proc, first_end, SPECS[0], 0, None)
        # The second worker closes its inherited copy of the first's end.
        second_proc, second_end = _spawn(ctx, run_cell, SPECS[1], None,
                                         [first])
        for proc, end in ((first_proc, first_end),
                          (second_proc, second_end)):
            assert end.poll(30.0) and end.recv()[0] == "ok"
            assert proc.is_alive()      # waiting for its next cell
        for proc, end in ((first_proc, first_end),
                          (second_proc, second_end)):
            end.close()
            proc.join(1.0)
            assert not proc.is_alive()
