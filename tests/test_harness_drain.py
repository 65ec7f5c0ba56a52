"""Pool drain on the interrupt path.

``drain_pool`` is what SIGINT/SIGTERM on ``run_cells`` and service
worker shutdown both funnel through: it must cancel in-flight cell
deadlines before touching the processes (so no timeout fires for a
cell being torn down), share one grace window across the whole pool,
and escalate to SIGKILL only for workers that ignore SIGTERM.
"""

import multiprocessing
import signal
import time

from repro.experiments.workers import CellSpec, _Running, drain_pool

SPEC = CellSpec(task="select", arch="active", num_disks=2, scale=1 / 1024)


def _sleep_politely(seconds):
    time.sleep(seconds)


def _ignore_sigterm_and_sleep(seconds):
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    time.sleep(seconds)


def _entry(ctx, target, deadline=None):
    parent, child = ctx.Pipe()
    proc = ctx.Process(target=target, args=(60.0,), daemon=True)
    proc.start()
    child.close()
    return _Running(proc=proc, conn=parent, spec=SPEC, attempt=0,
                    deadline=deadline)


class TestDrainPool:
    def test_pool_shares_one_grace_window(self):
        """Three polite sleepers drain in ~one grace, not three."""
        ctx = multiprocessing.get_context("fork")
        entries = [_entry(ctx, _sleep_politely,
                          deadline=time.monotonic() + 999.0)
                   for _ in range(3)]
        start = time.monotonic()
        drain_pool(entries, grace=1.0)
        elapsed = time.monotonic() - start
        assert elapsed < 2.5, f"drain serialized the grace: {elapsed:.2f}s"
        for entry in entries:
            assert entry.deadline is None, "in-flight deadline left armed"
            assert not entry.proc.is_alive()
            assert entry.conn.closed

    def test_sigterm_ignoring_worker_is_killed(self):
        ctx = multiprocessing.get_context("fork")
        entry = _entry(ctx, _ignore_sigterm_and_sleep)
        # Let the child install its SIG_IGN handler before we TERM it.
        time.sleep(0.3)
        start = time.monotonic()
        drain_pool([entry], grace=0.5)
        elapsed = time.monotonic() - start
        assert not entry.proc.is_alive()
        assert elapsed < 5.0, f"stubborn worker stalled drain: {elapsed:.2f}s"
        assert entry.deadline is None

    def test_drain_tolerates_already_dead_worker(self):
        ctx = multiprocessing.get_context("fork")
        entry = _entry(ctx, _sleep_politely)
        entry.proc.terminate()
        entry.proc.join(5.0)
        entry.conn.close()
        drain_pool([entry], grace=0.2)   # must not raise
        assert not entry.proc.is_alive()


def _report_dispositions(spec):
    """A cell that reports how its worker handles SIGTERM and SIGINT."""
    from repro.arch import RunResult
    return RunResult(spec.task, spec.arch, spec.num_disks, 0.0, [], extras={
        "sigterm_default": float(
            signal.getsignal(signal.SIGTERM) == signal.SIG_DFL),
        "sigint_ignored": float(
            signal.getsignal(signal.SIGINT) == signal.SIG_IGN)})


class TestWorkerSignals:
    def test_pooled_worker_leaves_shutdown_to_its_supervisor(self):
        """Under the supervisor's shield, a forked worker must neither
        turn SIGTERM into KeyboardInterrupt nor take the terminal's
        SIGINT: either would print a traceback per worker."""
        from repro.experiments.harness import _signal_shield
        from repro.experiments.workers import run_cells

        with _signal_shield():
            [outcome] = run_cells([SPEC], jobs=2, mp_context="fork",
                                  cell_fn=_report_dispositions)
        assert outcome.status == "done", outcome.error
        assert outcome.result.extras == {"sigterm_default": 1.0,
                                         "sigint_ignored": 1.0}
