"""Differential fuzzing of the simulator's kernels and physics.

The kernel has two run loops: the fast one (``Simulator._run_fast``),
which recycles pooled events and hoists every per-event hook out, and
the instrumented one, which steps each event through
``Simulator.step`` (trace callback, armed auditor hook, no recycling).
They must simulate identically. This module checks that by brute
force: generate seeded random small simulation cells (workload x
architecture x fault plan x memory size), run each cell once through
the **instrumented loop** with every conservation-law auditor armed
and once through the **fast loop** disarmed, and require

* neither run raises (no invariant violations, no kernel-protocol
  errors), and
* both runs produce **bit-identical** :class:`~repro.arch.RunResult`
  payloads (compared through the artifact serializer, so every float is
  compared exactly).

Any divergence is a real defect: either a conservation law broke (the
violation's ledger says which, where and when) or the loops disagree
(the diff says on what). The CLI front-end is ``repro audit``; the CI
job ``invariant-smoke`` runs ``repro audit --quick`` on every push.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from ..experiments.artifacts import result_to_dict
from ..experiments.journal import SweepJournal
from ..experiments.lifecycle import CellLedger
from ..experiments.workers import CellSpec, run_cell
from .auditor import InvariantAuditor
from .errors import InvariantViolation

__all__ = ["FuzzOutcome", "FuzzReport", "fuzz_cells", "run_fuzz"]

#: Architectures cycled by the generator (all three must be covered).
FUZZ_ARCHS = ("active", "cluster", "smp")

#: Tasks the fuzzer draws from: every registered workload generator.
FUZZ_TASKS = ("select", "groupby", "sort", "aggregate", "join",
              "dmine", "dcube", "mview")

#: Simulation scale band. Small enough that a full default batch (25
#: cells x 2 runs) stays in CI territory, large enough that every cell
#: crosses phase boundaries, shuffles and front-end delivery.
FUZZ_SCALE = (1 / 1024, 1 / 256)

#: Every Nth cell runs in degraded mode (one injected drive failure).
FAULT_EVERY = 5


@dataclass
class FuzzOutcome:
    """Terminal state of one differential cell."""

    spec: CellSpec
    status: str                      # "ok" | "violation" | "diverged" | "error"
    elapsed: Optional[float] = None
    violation: Optional[Dict] = None
    diff: List[str] = field(default_factory=list)
    error: Optional[str] = None
    result: Optional[object] = None  # the audited RunResult, when "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class FuzzReport:
    """Batch result of :func:`run_fuzz`."""

    seed: int
    outcomes: List[FuzzOutcome] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def failures(self) -> List[FuzzOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def summary(self) -> str:
        counts: Dict[str, int] = {}
        for outcome in self.outcomes:
            counts[outcome.status] = counts.get(outcome.status, 0) + 1
        parts = ", ".join(f"{count} {status}"
                          for status, count in sorted(counts.items()))
        return (f"differential fuzz (seed {self.seed}): "
                f"{len(self.outcomes)} cells — {parts or 'empty'}")


def fuzz_cells(count: int = 25, seed: int = 0) -> List[CellSpec]:
    """Generate ``count`` seeded random differential cells.

    The batch is deterministic in ``(count, seed)``: architectures
    rotate so all three appear, tasks/disk counts/scales are drawn from
    the seeded generator, and every :data:`FAULT_EVERY`-th cell gets a
    drive-failure plan (the failing disk is the last one, so every
    architecture's survivor re-scan path is exercised).
    """
    if count < 1:
        raise ValueError(f"need at least one fuzz cell, got {count}")
    rng = random.Random(seed)
    cells: List[CellSpec] = []
    for index in range(count):
        arch = FUZZ_ARCHS[index % len(FUZZ_ARCHS)]
        task = rng.choice(FUZZ_TASKS)
        num_disks = rng.choice((2, 4))
        low, high = FUZZ_SCALE
        scale = round(rng.uniform(low, high), 9)
        fault_disk = None
        fault_at = None
        fault_seed = 0
        if index % FAULT_EVERY == FAULT_EVERY - 1:
            fault_disk = num_disks - 1
            fault_at = round(rng.uniform(0.002, 0.05), 6)
            fault_seed = rng.randrange(1 << 16)
        cells.append(CellSpec(
            task=task, arch=arch, num_disks=num_disks,
            variant=f"fuzz{index:03d}", scale=scale,
            fault_disk=fault_disk, fault_at=fault_at,
            fault_seed=fault_seed, audit=True))
    return cells


def _diff_results(audited: Dict, fast: Dict) -> List[str]:
    """Exact field-by-field diff of two serialized RunResults."""
    diffs: List[str] = []
    keys = sorted(set(audited) | set(fast))
    for key in keys:
        left = audited.get(key)
        right = fast.get(key)
        if left != right:
            diffs.append(f"{key}: audited={left!r} fast={right!r}")
    return diffs


def run_fuzz(cells: Optional[Sequence[CellSpec]] = None, *,
             count: int = 25, seed: int = 0,
             journal_path: Optional[str] = None,
             on_cell=None) -> FuzzReport:
    """Run the differential batch; every cell armed vs disarmed.

    Each cell runs twice: once through the instrumented kernel loop
    with a fresh :class:`InvariantAuditor` armed, once through the fast
    loop disarmed. The two serialized results must match exactly.
    ``on_cell(outcome)`` fires per terminal cell; with ``journal_path``
    every cell's lifecycle (including any violation report) is journaled
    through the standard :class:`~repro.experiments.lifecycle.CellLedger`
    so ``repro doctor`` can summarize a fuzz run like any sweep, and a
    cell whose audited result is already journaled counts as ``ok``.
    """
    if cells is None:
        cells = fuzz_cells(count=count, seed=seed)
    journal = SweepJournal.load(journal_path) if journal_path else None
    ledger = CellLedger(cells, journal, meta={
        "driver": "invariants.fuzz", "seed": seed, "cells": len(cells)})
    report = FuzzReport(seed=seed, outcomes=[
        FuzzOutcome(ledger.specs[key], "ok", elapsed=result["elapsed"])
        for key, result in ledger.resumed.items()])
    try:
        while (started := ledger.start_next()) is not None:
            spec, attempt = started
            outcome = _run_one(spec)
            report.outcomes.append(outcome)
            if outcome.ok:
                ledger.done(spec.key, attempt, outcome.result)
            else:
                ledger.failed(spec.key, attempt, outcome.error,
                              "violation" if outcome.violation else "error",
                              violation=outcome.violation)
            if on_cell is not None:
                on_cell(outcome)
    finally:
        if journal is not None:
            journal.close()
    return report


def _run_one(spec: CellSpec) -> FuzzOutcome:
    hub = InvariantAuditor()
    try:
        audited = run_cell(spec, invariants=hub)
    except InvariantViolation as violation:
        return FuzzOutcome(spec, "violation", violation=violation.report(),
                           error=str(violation))
    except Exception as exc:
        return FuzzOutcome(spec, "error",
                           error=f"audited run: {exc!r}")
    try:
        fast = run_cell(dataclasses.replace(spec, audit=False))
    except Exception as exc:
        return FuzzOutcome(spec, "error",
                           error=f"fast run: {exc!r}")
    diff = _diff_results(result_to_dict(audited), result_to_dict(fast))
    if diff:
        return FuzzOutcome(spec, "diverged", diff=diff,
                           error="; ".join(diff[:3]))
    return FuzzOutcome(spec, "ok", elapsed=audited.elapsed, result=audited)
