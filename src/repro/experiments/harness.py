"""The resilient sweep harness: journaled, resumable, signal-safe sweeps.

:class:`SweepRunner` ties the pieces together: it folds an existing
:class:`~repro.experiments.journal.SweepJournal` into a
:class:`~repro.experiments.lifecycle.CellLedger` (which reloads
completed cells bit-identically, and journals every later transition
and applies the retry and quarantine rules), hands the incomplete cells
to the :mod:`~repro.experiments.workers` executors (process isolation,
timeouts), and converts SIGINT/SIGTERM into a clean shutdown: live workers
are terminated, the journal is flushed, and a one-line
``repro resume <journal>`` hint is printed before
:class:`SweepInterrupted` propagates.

Figure drivers take an optional ``runner``; without one they execute
cells inline in the calling process — the historical, byte-identical
default. With one, any driver sweep becomes restartable::

    runner = SweepRunner(journal_path="results/fig1.journal.jsonl",
                         jobs=4, timeout=600, retries=1)
    figure = run_fig1(sizes=(16, 64), runner=runner)

Harness activity is observable: every runner keeps ``harness.*``
counters (``resumed_cells``, ``retries``, ``timeouts``, ``crashes``,
``violations``, ``completed``, ``quarantined``) and mirrors them into a
:class:`~repro.telemetry.Telemetry` hub's metric registry when one is
supplied.
"""

from __future__ import annotations

import signal
import sys
import threading
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch import RunResult
from .artifacts import result_from_dict
from .journal import SweepJournal
from .lifecycle import CellLedger
from .workers import CellOutcome, CellSpec, run_cell, run_ledger

__all__ = ["SweepRunner", "SweepInterrupted", "execute_cells",
           "resume_sweep"]

#: Counter names every runner tracks (and mirrors into telemetry).
COUNTERS = ("scheduled", "resumed_cells", "completed", "retries",
            "timeouts", "crashes", "violations", "ooms", "quarantined")

#: The counter each failure kind bumps ("error" bumps none).
_KIND_COUNTERS = {"timeout": "timeouts", "crashed": "crashes",
                  "violation": "violations", "oom": "ooms"}


class SweepInterrupted(Exception):
    """A sweep was stopped by SIGINT/SIGTERM; state is in the journal."""

    def __init__(self, message: str, journal_path: Optional[str] = None):
        super().__init__(message)
        self.journal_path = journal_path


class SweepRunner:
    """Executes sweep cells with journaling, isolation and recovery."""

    def __init__(self, journal_path: Optional[str] = None, *,
                 jobs: int = 1,
                 timeout: Optional[float] = None,
                 retries: int = 0,
                 backoff: float = 0.05,
                 strict: bool = True,
                 telemetry=None,
                 meta: Optional[Dict] = None,
                 memory_budget_mb: Optional[int] = None):
        self.journal_path = journal_path
        self.jobs = jobs
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.strict = strict
        self.telemetry = telemetry
        self.meta = dict(meta or {})
        self.memory_budget_mb = memory_budget_mb
        self.counters: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.quarantined: List[CellOutcome] = []

    # -------------------------------------------------------- counters
    def _count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount
        if self.telemetry is not None:
            self.telemetry.registry.counter(f"harness.{name}").add(amount)

    def _started(self, spec: CellSpec, attempt: int) -> None:
        if attempt > 0:
            self._count("retries")

    def _attempt_failed(self, spec: CellSpec, attempt: int, error: str,
                        kind: str) -> None:
        if kind in _KIND_COUNTERS:
            self._count(_KIND_COUNTERS[kind])

    # ------------------------------------------------------------- run
    def run(self, specs: Sequence[CellSpec],
            after_cell: Optional[Callable[[CellOutcome], None]] = None,
            ) -> Dict[str, RunResult]:
        """Run every spec to completion, returning results by cell key.

        Already-done journal cells with a matching config hash are
        reloaded, not re-run. ``after_cell`` is a post-journal hook per
        terminal cell (used by tests to interrupt deterministically).
        Raises :class:`SweepInterrupted` on SIGINT/SIGTERM, and — when
        ``strict`` — ``RuntimeError`` if any cell ended quarantined.
        """
        journal = (SweepJournal.load(self.journal_path)
                   if self.journal_path else None)
        results: Dict[str, RunResult] = {}

        def on_outcome(outcome: CellOutcome) -> None:
            if outcome.status == "done":
                results[outcome.key] = outcome.result
                self._count("completed")
            else:
                self.quarantined.append(outcome)
                self._count("quarantined")
            if after_cell is not None:
                after_cell(outcome)

        ledger = CellLedger(specs, journal, retries=self.retries,
                            backoff=self.backoff, meta=self.meta,
                            on_start=self._started,
                            on_attempt_failed=self._attempt_failed,
                            on_outcome=on_outcome)
        for key, result in ledger.resumed.items():
            results[key] = result_from_dict(result)
        if ledger.resumed:
            self._count("resumed_cells", len(ledger.resumed))
        self._count("scheduled", len(ledger.queue))
        try:
            with _signal_shield():
                run_ledger(ledger, jobs=self.jobs, timeout=self.timeout,
                           memory_budget_mb=self.memory_budget_mb)
        except (KeyboardInterrupt, SweepInterrupted) as exc:
            if journal is not None:
                journal.close()
                print(f"sweep interrupted — resume with: "
                      f"repro resume {self.journal_path}", file=sys.stderr)
            raise SweepInterrupted(
                f"sweep interrupted with {len(results)} of {len(specs)} "
                f"cells complete", journal_path=self.journal_path) from exc
        finally:
            if journal is not None:
                journal.close()

        if self.quarantined and self.strict:
            keys = ", ".join(o.key for o in self.quarantined)
            raise RuntimeError(
                f"{len(self.quarantined)} cell(s) quarantined after "
                f"{self.retries} retr{'y' if self.retries == 1 else 'ies'}: "
                f"{keys}\nlast error:\n{self.quarantined[-1].error}")
        return results


class _signal_shield:
    """Convert SIGTERM into KeyboardInterrupt for the enclosed block.

    SIGINT already raises KeyboardInterrupt; routing SIGTERM through the
    same path gives both signals the same drain-flush-hint shutdown.
    Restores the previous handler on exit, and degrades to a no-op off
    the main thread (where ``signal.signal`` is forbidden).
    """

    def __enter__(self):
        self._previous = None
        if threading.current_thread() is threading.main_thread():
            def _raise(signum, frame):
                raise KeyboardInterrupt("SIGTERM")
            try:
                self._previous = signal.signal(signal.SIGTERM, _raise)
            except (ValueError, OSError):  # pragma: no cover
                self._previous = None
        return self

    def __exit__(self, *exc):
        if self._previous is not None:
            signal.signal(signal.SIGTERM, self._previous)
        return False


def execute_cells(specs: Sequence[CellSpec],
                  runner: Optional[SweepRunner] = None,
                  ) -> Dict[str, RunResult]:
    """Run specs through ``runner``, or inline (the historical path).

    The inline path executes cells in order, in-process, with no journal
    — exactly what the figure drivers always did, so results and
    artifacts stay byte-identical when no runner is supplied.
    """
    if runner is None:
        return {spec.key: run_cell(spec) for spec in specs}
    return runner.run(specs)


def resume_sweep(journal_path: str, *,
                 jobs: int = 1, timeout: Optional[float] = None,
                 retries: int = 0, strict: bool = True,
                 telemetry=None,
                 memory_budget_mb: Optional[int] = None,
                 ) -> Tuple[Dict, Dict[str, RunResult]]:
    """Complete a sweep from its journal alone.

    Rebuilds every journaled cell spec, reloads the done ones, re-runs
    the rest (including cells left ``running`` by a killed process), and
    returns ``(sweep meta, results by key)``.
    """
    journal = SweepJournal.load(journal_path)
    if not journal.cells:
        raise ValueError(f"{journal_path}: no journaled cells to resume")
    specs = []
    for key, state in journal.cells.items():
        if state.spec is None:
            raise ValueError(f"{journal_path}: cell {key!r} has no "
                             f"recorded spec; cannot resume")
        specs.append(CellSpec.from_dict(state.spec))
    runner = SweepRunner(journal_path, jobs=jobs, timeout=timeout,
                         retries=retries, strict=strict,
                         telemetry=telemetry,
                         memory_budget_mb=memory_budget_mb)
    return dict(journal.meta), runner.run(specs)
