"""Sweep cells and the process-isolated worker pool that runs them.

A :class:`CellSpec` is a JSON-serializable description of one simulation
— (task, architecture, disk count, scale) plus the variant knobs the
figure drivers use (memory, interconnect rate, restricted routing,
drive model, injected drive failure). It is the unit the journal
records, the worker processes receive, and the config hash covers.

:func:`run_cells` executes a batch of specs. With ``jobs == 1`` and no
timeout it runs them inline, in order, in the calling process — the
exact code path the figure drivers always had, so default results stay
byte-identical. With ``jobs > 1`` (or a timeout) each simulation runs in
its own subprocess, so a crash (segfault, OOM kill) or a hang in one
pathological configuration is contained: the supervisor reaps the
worker and reports the failed attempt to the cell's
:class:`~repro.experiments.lifecycle.CellLedger`, which retries it with
exponential backoff up to ``retries`` times and finally *quarantines*
the cell rather than sinking the sweep.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import signal
import time
import traceback
from dataclasses import dataclass, field, fields
from typing import Callable, Dict, List, Optional, Sequence

from ..arch import RunResult
from .artifacts import result_from_dict, result_to_dict
from .lifecycle import CellLedger, CellOutcome
from .runner import DEFAULT_SCALE, config_for, run_task

__all__ = ["CellSpec", "CellOutcome", "run_cells", "run_ledger", "run_cell",
           "build_config", "drain_pool"]

#: Named drive models a spec may reference (JSON-friendly indirection).
DRIVE_NAMES = ("SEAGATE_ST39102", "HITACHI_DK3E1T91")

MB = 1_000_000


@dataclass(frozen=True)
class CellSpec:
    """One sweep cell: everything needed to reproduce a single run."""

    task: str
    arch: str
    num_disks: int
    variant: str = "base"
    scale: float = DEFAULT_SCALE
    memory_mb: Optional[int] = None
    interconnect_mb: Optional[float] = None
    restricted: bool = False
    fibreswitch_segments: Optional[int] = None
    drive: Optional[str] = None
    fault_disk: Optional[int] = None
    fault_at: Optional[float] = None
    fault_seed: int = 0
    audit: bool = False
    #: Traffic cells: a :class:`repro.traffic.TrafficConfig` encoding.
    #: ``task`` is "traffic" by convention; ``run_cell`` dispatches to
    #: the open-loop engine instead of a single-query simulation.
    traffic: Optional[Dict] = field(default=None, hash=False)

    @property
    def key(self) -> str:
        """Journal key; unique within a sweep by construction."""
        return f"{self.task}:{self.arch}:{self.num_disks}:{self.variant}"

    def to_dict(self) -> Dict:
        out = {}
        for spec_field in fields(self):
            value = getattr(self, spec_field.name)
            if value != spec_field.default:
                out[spec_field.name] = value
        out.update(task=self.task, arch=self.arch,
                   num_disks=self.num_disks, variant=self.variant,
                   scale=self.scale)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "CellSpec":
        valid = {spec_field.name for spec_field in fields(cls)}
        unknown = set(data) - valid
        if unknown:
            raise ValueError(
                f"unknown CellSpec fields: {', '.join(sorted(unknown))}")
        return cls(**data)

    def config_hash(self) -> str:
        """Stable digest of the configuration this spec implies."""
        import hashlib
        import json
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def build_config(spec: CellSpec):
    """Materialize the :class:`ArchConfig` a spec describes."""
    overrides = {}
    if spec.drive is not None:
        if spec.drive not in DRIVE_NAMES:
            raise ValueError(f"unknown drive {spec.drive!r}; "
                             f"pick one of {DRIVE_NAMES}")
        from .. import disk
        overrides["drive"] = getattr(disk, spec.drive)
    config = config_for(spec.arch, spec.num_disks, **overrides)
    if spec.memory_mb is not None:
        config = config.with_memory(spec.memory_mb * MB)
    if spec.interconnect_mb is not None:
        config = config.with_interconnect(spec.interconnect_mb * MB)
    if spec.fibreswitch_segments is not None:
        config = config.with_fibreswitch(spec.fibreswitch_segments)
    if spec.restricted:
        config = config.restricted()
    return config


def run_cell(spec: CellSpec, invariants=None) -> RunResult:
    """Run one cell to completion in the current process.

    ``spec.audit`` arms a fresh
    :class:`~repro.invariants.InvariantAuditor` for the run (unless the
    caller passes its own via ``invariants``); a broken conservation law
    then raises :class:`~repro.invariants.InvariantViolation`, which the
    pool quarantines immediately — a deterministic modelling defect is
    not worth retrying.
    """
    if spec.traffic is not None:
        from ..traffic.driver import run_traffic_cell
        return run_traffic_cell(spec)
    if invariants is None and spec.audit:
        from ..invariants import InvariantAuditor
        invariants = InvariantAuditor()
    fault_plan = None
    if spec.fault_disk is not None:
        from ..faults import FaultPlan, FaultSpec
        fault_plan = FaultPlan.of(
            FaultSpec(kind="drive_failure", target=f"disk.{spec.fault_disk}",
                      at=spec.fault_at or 0.0),
            seed=spec.fault_seed)
    return run_task(build_config(spec), spec.task, spec.scale,
                    fault_plan=fault_plan, invariants=invariants)


# ----------------------------------------------------------- subprocess
def _apply_memory_budget(budget_mb: int) -> bool:
    """Cap this process's address space at ``budget_mb`` megabytes.

    Returns False where RLIMIT_AS is unavailable (non-POSIX platforms);
    the budget then degrades to unenforced rather than failing the cell.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - windows
        return False
    budget = budget_mb * MB
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        budget = min(budget, hard)
    try:
        resource.setrlimit(resource.RLIMIT_AS, (budget, hard))
    except (ValueError, OSError):  # pragma: no cover - exotic hard limits
        return False
    return True


def _worker_main(cell_fn, spec_dict: Dict, conn,
                 memory_budget_mb: Optional[int] = None) -> None:
    """Entry point of one worker subprocess: run one cell, pipe it back.

    A forked worker inherits its supervisor's signal handlers. The
    supervisor owns shutdown (:func:`drain_pool`), so the worker ignores
    the terminal's SIGINT and lets SIGTERM end it without a traceback.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from ..invariants import InvariantViolation
    if memory_budget_mb is not None:
        _apply_memory_budget(memory_budget_mb)
    try:
        result = cell_fn(CellSpec.from_dict(spec_dict))
        conn.send(("ok", result_to_dict(result)))
    except MemoryError:
        # The allocation that tripped RLIMIT_AS is gone once the frame
        # unwinds; keep this handler allocation-light all the same. A
        # MemoryError with no budget set is host pressure, not a budget
        # bust — report it as an ordinary (retryable) error.
        kind = "oom" if memory_budget_mb is not None else "error"
        message = (f"cell exceeded its {memory_budget_mb} MB memory budget"
                   if memory_budget_mb is not None
                   else "MemoryError outside any configured budget")
        try:
            conn.send((kind, message))
        except BrokenPipeError:  # pragma: no cover - supervisor died
            pass
    except InvariantViolation as violation:
        try:
            conn.send(("violation", {
                "report": violation.report(),
                "error": traceback.format_exc(limit=20),
            }))
        except BrokenPipeError:  # pragma: no cover - supervisor died
            pass
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc(limit=20)))
        except BrokenPipeError:  # pragma: no cover - supervisor died
            pass
    finally:
        conn.close()


def _mp_context(name: Optional[str] = None):
    if name is None:
        methods = multiprocessing.get_all_start_methods()
        name = "fork" if "fork" in methods else "spawn"
    return multiprocessing.get_context(name)


@dataclass
class _Running:
    proc: object
    conn: object
    spec: CellSpec
    attempt: int
    deadline: Optional[float]


def _reap(entry: _Running) -> None:
    """Terminate one worker, escalating to SIGKILL if it lingers."""
    if entry.proc.is_alive():
        entry.proc.terminate()
        entry.proc.join(0.5)
        if entry.proc.is_alive():  # pragma: no cover - stubborn worker
            entry.proc.kill()
            entry.proc.join(0.5)
    try:
        entry.conn.close()
    except OSError:  # pragma: no cover
        pass


def drain_pool(entries: List[_Running], *, grace: float = 0.5) -> None:
    """Drain a pool: cancel in-flight deadlines, then reap every worker.

    Used on the interrupt path (SIGINT/SIGTERM) and by service workers
    shutting down. Each entry's wall-clock deadline is cancelled *first*
    so no timeout bookkeeping fires for a cell we are already tearing
    down, then termination is two-phase and pool-wide: every live
    worker gets SIGTERM at once, the whole group shares one ``grace``
    window, and only stragglers are SIGKILLed — so Ctrl-C on a wide
    sweep exits in ~``grace`` seconds instead of serializing a
    per-worker wait.
    """
    for entry in entries:
        entry.deadline = None
        if entry.proc.is_alive():
            entry.proc.terminate()
    joined_by = time.monotonic() + grace
    for entry in entries:
        entry.proc.join(max(0.0, joined_by - time.monotonic()))
        if entry.proc.is_alive():  # pragma: no cover - stubborn worker
            entry.proc.kill()
            entry.proc.join(0.5)
        try:
            entry.conn.close()
        except OSError:  # pragma: no cover
            pass


def run_cells(specs: Sequence[CellSpec], *,
              jobs: int = 1,
              timeout: Optional[float] = None,
              retries: int = 0,
              backoff: float = 0.05,
              cell_fn: Callable[[CellSpec], RunResult] = run_cell,
              on_start: Optional[Callable[[CellSpec, int], None]] = None,
              on_attempt_failed: Optional[
                  Callable[[CellSpec, int, str, str], None]] = None,
              on_outcome: Optional[Callable[[CellOutcome], None]] = None,
              mp_context: Optional[str] = None,
              memory_budget_mb: Optional[int] = None,
              ) -> List[CellOutcome]:
    """Execute every spec, retrying and quarantining as configured.

    Callbacks fire in the supervising process, in event order:
    ``on_start(spec, attempt)`` when an attempt launches,
    ``on_attempt_failed(spec, attempt, error, kind)`` when one fails
    (``kind`` is ``"error"``, ``"timeout"``, ``"crashed"``,
    ``"violation"`` or ``"oom"``), and ``on_outcome(outcome)`` once per
    cell at its terminal state. Retries, backoff and the immediate
    quarantine of a deterministic ``violation`` or ``oom`` are the
    :class:`~repro.experiments.lifecycle.CellLedger`'s rules; this
    builds an unjournaled ledger and hands it to :func:`run_ledger`.
    """
    ledger = CellLedger(specs, retries=retries, backoff=backoff,
                        on_start=on_start,
                        on_attempt_failed=on_attempt_failed,
                        on_outcome=on_outcome)
    return run_ledger(ledger, jobs=jobs, timeout=timeout, cell_fn=cell_fn,
                      mp_context=mp_context,
                      memory_budget_mb=memory_budget_mb)


def run_ledger(ledger: CellLedger, *,
               jobs: int = 1,
               timeout: Optional[float] = None,
               cell_fn: Callable[[CellSpec], RunResult] = run_cell,
               mp_context: Optional[str] = None,
               memory_budget_mb: Optional[int] = None,
               ) -> List[CellOutcome]:
    """Run ``ledger``'s queued cells to terminal states; its outcomes.

    With ``jobs == 1``, no timeout and no memory budget, cells run
    inline. Otherwise each attempt runs in its own subprocess, and
    ``memory_budget_mb`` caps its address space (RLIMIT_AS, POSIX
    only): a cell that busts it fails as ``oom`` while the host stays
    up. ``KeyboardInterrupt`` (and SIGTERM re-raised as one) propagates
    only after every live worker is terminated — no orphans.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    if memory_budget_mb is not None and memory_budget_mb < 1:
        raise ValueError(
            f"memory budget must be >= 1 MB, got {memory_budget_mb}")
    if jobs > 1 or timeout is not None or memory_budget_mb is not None:
        _run_pool(ledger, jobs=jobs, timeout=timeout, cell_fn=cell_fn,
                  mp_context=mp_context, memory_budget_mb=memory_budget_mb)
    else:
        _run_inline(ledger, cell_fn)
    return ledger.outcomes


def _run_inline(ledger: CellLedger, cell_fn) -> None:
    from ..invariants import InvariantViolation
    while ledger.queue:
        started = ledger.start_next()
        if started is None:     # every queued cell is in a backoff hold
            time.sleep(0.005)
            continue
        spec, attempt = started
        try:
            result = cell_fn(spec)
        except InvariantViolation as violation:
            ledger.failed(spec.key, attempt, traceback.format_exc(limit=20),
                          "violation", violation=violation.report())
        except Exception:
            ledger.failed(spec.key, attempt, traceback.format_exc(limit=20),
                          "error")
        else:
            ledger.done(spec.key, attempt, result)


def _run_pool(ledger: CellLedger, *, jobs, timeout, cell_fn, mp_context,
              memory_budget_mb) -> None:
    ctx = _mp_context(mp_context)
    running: List[_Running] = []
    try:
        while ledger.queue or running:
            now = time.monotonic()
            while len(running) < jobs:
                started = ledger.start_next()
                if started is None:
                    break
                spec, attempt = started
                parent, child = ctx.Pipe(duplex=False)
                proc = ctx.Process(
                    target=_worker_main,
                    args=(cell_fn, spec.to_dict(), child, memory_budget_mb),
                    name=f"repro-cell-{spec.key}", daemon=True)
                proc.start()
                child.close()
                deadline = now + timeout if timeout is not None else None
                running.append(_Running(proc, parent, spec, attempt,
                                        deadline))
            if not running:
                time.sleep(0.005)
                continue
            multiprocessing.connection.wait(
                [entry.conn for entry in running], timeout=0.05)
            now = time.monotonic()
            still: List[_Running] = []
            for entry in running:
                key, attempt = entry.spec.key, entry.attempt
                ready = entry.conn.poll()
                dead = not ready and not entry.proc.is_alive()
                if dead:
                    # The worker may have sent its result and exited
                    # between the poll and the liveness check: look at
                    # the pipe once more before failing the attempt.
                    ready = entry.conn.poll()
                if ready:
                    try:
                        kind, payload = entry.conn.recv()
                    except EOFError:
                        kind, payload = "crashed", (
                            f"worker exited without a result "
                            f"(exitcode {entry.proc.exitcode})")
                    entry.proc.join(1.0)
                    _reap(entry)
                    if kind == "ok":
                        ledger.done(key, attempt, result_from_dict(payload))
                    elif kind == "violation":
                        ledger.failed(key, attempt, payload["error"], kind,
                                      violation=payload["report"])
                    else:   # "error", "oom" or "crashed"
                        ledger.failed(key, attempt, payload, kind)
                elif dead:
                    _reap(entry)
                    ledger.failed(key, attempt,
                                  f"worker died without a result "
                                  f"(exitcode {entry.proc.exitcode})",
                                  "crashed")
                elif entry.deadline is not None and now > entry.deadline:
                    _reap(entry)
                    ledger.failed(key, attempt,
                                  f"cell exceeded {timeout:g}s wall-clock "
                                  f"timeout", "timeout")
                else:
                    still.append(entry)
            running = still
    finally:
        drain_pool(running)
