"""The cell lifecycle shared by every way of running a sweep.

:class:`CellLedger` is the only code that knows a sweep cell's states,
the journal record each transition writes and the attempt arithmetic;
``docs/HARNESS.md`` ("The cell lifecycle") states the rules. Its
callers — ``SweepRunner`` with the executors of :mod:`.workers`, the
service ``Coordinator`` and the differential fuzzer — only decide where
an attempt runs, and report what became of it::

    ledger = CellLedger(specs, journal, retries=1)
    while (started := ledger.start_next()) is not None:
        spec, attempt = started
        ledger.done(spec.key, attempt, run_cell(spec))   # or .failed(...)
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import (TYPE_CHECKING, Callable, Deque, Dict, List, Optional,
                    Sequence, Set, Tuple)

from .artifacts import result_to_dict

if TYPE_CHECKING:
    from .workers import CellSpec

__all__ = ["CellLedger", "CellOutcome", "DETERMINISTIC_KINDS", "last_line"]

#: Failure kinds that quarantine at once: rerunning the same
#: deterministic simulation would reproduce the same violation, or
#: allocate the same bytes into the same memory budget.
DETERMINISTIC_KINDS = ("violation", "oom")


@dataclass
class CellOutcome:
    """Terminal outcome of one cell after all attempts."""

    spec: CellSpec
    status: str                     # "done" | "quarantined"
    attempts: int
    result: Optional[object] = None
    error: Optional[str] = None
    violation: Optional[Dict] = None
    kind: Optional[str] = None      # the last failed attempt's kind

    @property
    def key(self) -> str:
        return self.spec.key

    @property
    def oom(self) -> bool:
        """Quarantined for busting a memory budget."""
        return self.kind == "oom"


def last_line(text: str) -> str:
    """The most informative single line of a traceback blob."""
    lines = [line.strip() for line in text.strip().splitlines()
             if line.strip()]
    return lines[-1] if lines else ""


class CellLedger:
    """One sweep's cells, folded from ``journal`` (a ``SweepJournal`` or
    None), which also gets ``meta`` unless it has a ``sweep`` record.
    The hooks ``on_start(spec, attempt)``, ``on_attempt_failed(spec,
    attempt, error, kind)`` and ``on_outcome(outcome)`` fire after the
    record of their transition."""

    def __init__(self, specs: Sequence[CellSpec], journal=None, *,
                 retries: int = 0, backoff: float = 0.05,
                 meta: Optional[Dict] = None,
                 on_start: Optional[Callable] = None,
                 on_attempt_failed: Optional[Callable] = None,
                 on_outcome: Optional[Callable] = None):
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self.specs: Dict[str, CellSpec] = {}
        for spec in specs:
            if spec.key in self.specs:
                raise ValueError(f"duplicate sweep cell key {spec.key!r}")
            self.specs[spec.key] = spec
        self.journal = journal
        self.retries = retries
        self.backoff = backoff
        self.on_start = on_start
        self.on_attempt_failed = on_attempt_failed
        self.on_outcome = on_outcome
        #: Result encodings of the cells reloaded from the journal.
        self.resumed: Dict[str, Dict] = {}
        #: Every cell's latest journaled status: the journal's fold.
        self.states: Dict[str, str] = {}
        #: Terminal outcomes, in the order the cells reached them.
        self.outcomes: List[CellOutcome] = []
        #: (key, attempt, not_before): ready cells plus backoff holds.
        self.queue: Deque[Tuple[str, int, float]] = deque()
        #: key -> attempt, for every started attempt not yet ended.
        self.running: Dict[str, int] = {}
        self._terminal: Set[str] = set()
        self._reported: Set[Tuple[str, int]] = set()
        if journal is not None and meta and not journal.meta:
            journal.note_sweep(meta)
        for key, spec in self.specs.items():
            state = journal.cells.get(key) if journal is not None else None
            digest = spec.config_hash() if journal is not None else None
            if (state is not None and state.status == "done"
                    and state.config_hash == digest
                    and state.result is not None):
                self.resumed[key] = state.result
                self._terminal.add(key)
                self.states[key] = "done"
                continue
            if journal is not None and (state is None
                                        or state.config_hash != digest):
                self._note(key, "pending", spec=spec.to_dict(),
                           config_hash=digest)
            else:
                self.states[key] = state.status if state else "pending"
            self.queue.append((key, 0, 0.0))

    @property
    def quarantined(self) -> List[CellOutcome]:
        return [outcome for outcome in self.outcomes
                if outcome.status == "quarantined"]

    def settled(self, key: str, attempt: int) -> bool:
        """True once ``key`` is terminal or ``attempt`` reported its own
        end: a further report for it is a duplicate."""
        return key in self._terminal or (key, attempt) in self._reported

    # -------------------------------------------------------- transitions
    def start_next(self, worker: Optional[str] = None):
        """Start the first queued attempt past its backoff hold: returns
        ``(spec, attempt)``, or None while nothing is ready."""
        now = time.monotonic()
        for index, (key, attempt, not_before) in enumerate(self.queue):
            if not_before <= now:
                del self.queue[index]
                self.running[key] = attempt
                self._note(key, "running", attempt=attempt, worker=worker)
                if self.on_start is not None:
                    self.on_start(self.specs[key], attempt)
                return self.specs[key], attempt
        return None

    def done(self, key: str, attempt: int, result, *,
             worker: Optional[str] = None) -> bool:
        """``attempt`` produced ``result`` (a RunResult or its encoding);
        False, changing nothing, for a duplicate. An earlier attempt's
        late result still completes the cell, withdrawing newer ones."""
        if self.settled(key, attempt):
            return False
        self.running.pop(key, None)
        self.queue = deque(item for item in self.queue if item[0] != key)
        record = (result_to_dict(result) if self.journal is not None
                  and not isinstance(result, dict) else result)
        self._finish(CellOutcome(self.specs[key], "done", attempt + 1,
                                 result=result), worker, result=record)
        return True

    def failed(self, key: str, attempt: int, error: str, kind: str, *,
               worker: Optional[str] = None,
               violation: Optional[Dict] = None,
               presumed: bool = False) -> bool:
        """``attempt`` failed with ``kind``; True if a retry was queued.

        A ``presumed`` failure (a lost or stalled service worker) was
        not reported by the attempt, whose late ``done`` may still
        complete the cell. A failure of an attempt not running (its cell
        is terminal, or moved on) changes nothing.
        """
        if self.running.get(key) != attempt:
            return False
        del self.running[key]
        if not presumed:
            self._reported.add((key, attempt))
        self._note(key, "failed", attempt=attempt, error=last_line(error),
                   worker=worker)
        if self.on_attempt_failed is not None:
            self.on_attempt_failed(self.specs[key], attempt, error, kind)
        if kind not in DETERMINISTIC_KINDS and attempt < self.retries:
            hold = self.backoff * (2 ** attempt)
            self.queue.append((key, attempt + 1, time.monotonic() + hold))
            return True
        self._finish(CellOutcome(self.specs[key], "quarantined",
                                 attempt + 1, error=error,
                                 violation=violation, kind=kind),
                     worker, error=last_line(error), violation=violation,
                     oom=kind == "oom")
        return False

    # ----------------------------------------------------------- records
    def _finish(self, outcome: CellOutcome, worker: Optional[str],
                **fields) -> None:
        self._terminal.add(outcome.key)
        self._note(outcome.key, outcome.status,
                   attempt=outcome.attempts - 1, worker=worker, **fields)
        self.outcomes.append(outcome)
        if self.on_outcome is not None:
            self.on_outcome(outcome)

    def _note(self, key: str, status: str, **fields) -> None:
        if self.journal is not None:
            self.journal.note_cell(key, status, **fields)
        self.states[key] = status
