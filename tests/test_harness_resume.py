"""Interruption and resumption of journaled sweeps.

The harness's core promise: a sweep killed at any point — KeyboardInterrupt,
SIGTERM, a crashing or hanging worker — leaves a loadable journal, and a
subsequent resume re-runs only the incomplete cells yet produces results
bit-identical to a sweep that was never interrupted.
"""

import os
import signal
import time

import pytest

from repro.experiments import (
    CellSpec,
    SweepInterrupted,
    SweepRunner,
    resume_sweep,
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


class _LatePollContext:
    """A multiprocessing context stand-in handing out late-poll pipes."""

    def __init__(self, ctx):
        self._ctx = ctx
        self._parent = None

    def Pipe(self, duplex=True):
        parent, child = self._ctx.Pipe(duplex=duplex)
        self._parent = _LateFirstPoll(parent)
        return self._parent, child

    def Process(self, **kwargs):
        proc = self._ctx.Process(**kwargs)
        self._parent.proc = proc
        return proc


@pytest.mark.skipif("fork" not in __import__("multiprocessing")
                    .get_all_start_methods(),
                    reason="fork start method required")
class TestProcessIsolation:
    def test_result_sent_just_before_exit_is_kept(self, monkeypatch):
        # The worker sends its result and exits between the supervisor's
        # poll and its liveness check; the result must still count.
        import repro.experiments.workers as workers_mod
        ctx = workers_mod._mp_context("fork")
        monkeypatch.setattr(workers_mod, "_mp_context",
                            lambda name=None: _LatePollContext(ctx))
        outcomes = run_cells(SPECS[:2], jobs=2, retries=0)
        assert [o.status for o in outcomes] == ["done", "done"]
        assert all(o.attempts == 1 for o in outcomes)
        inline = _uninterrupted_results()
        assert {o.key: o.result for o in outcomes} == {
            key: inline[key] for key in (SPECS[0].key, SPECS[1].key)}

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
