"""End-to-end driver benchmarks plus the figure bit-identity guard.

The timing cells exercise the whole stack — kernel, device models,
architecture machines, workload programs — exactly the way the figure
drivers do, so a kernel optimization that pessimizes a device model (or
vice versa) shows up here even if the microbenchmarks improve.

The **identity guard** is what makes this a *safe* perf suite: it
regenerates Figure 1 with the live simulator and byte-compares the CSV
against the checked-in ``results/fig1_arch_comparison.csv``. The
simulator is deterministic, so any byte of drift means an optimization
changed simulated behaviour — the guard fails rather than letting a
"faster but different" kernel land.
"""

from __future__ import annotations

import pathlib
import time
from typing import List, Optional, Sequence

from ..sim import Simulator
from .report import BenchResult, measure, peak_rss_kb

__all__ = ["run_e2e_suite", "fig1_identity_check", "IdentityDrift"]

#: Checked-in Figure 1 baseline the guard compares against.
FIG1_BASELINE = (pathlib.Path(__file__).resolve().parents[3]
                 / "results" / "fig1_arch_comparison.csv")


class IdentityDrift(AssertionError):
    """The regenerated figure differs from the checked-in baseline."""


def _run_cell(arch: str, task: str, disks: int, scale: float) -> int:
    """One driver cell built by hand so the kernel event count is visible."""
    from ..arch import build_machine
    from ..experiments import config_for
    from ..workloads import build_program

    sim = Simulator()
    machine = build_machine(sim, config_for(arch, disks))
    program = build_program(task, config_for(arch, disks), scale)
    result = machine.run(program)
    assert result.elapsed > 0
    return sim.event_count


def _baseline_lines() -> List[bytes]:
    return FIG1_BASELINE.read_bytes().split(b"\r\n")


def _baseline_scale(lines: List[bytes]) -> float:
    # Column layout: figure,task,arch,disks,scale,elapsed_s,normalized
    return float(lines[1].split(b",")[4])


def fig1_identity_check(quick: bool = False,
                        sizes: Optional[Sequence[int]] = None) -> dict:
    """Regenerate Figure 1 and byte-compare it to the baseline CSV.

    ``quick`` restricts the sweep to the 16-disk column and compares it
    against the corresponding subset of the baseline, which keeps the CI
    smoke job fast while still guarding every task x architecture cell.

    Returns ``{"identical": True, "cells": N, "wall_s": ...}`` or raises
    :class:`IdentityDrift` with the first differing line.
    """
    from ..experiments import fig1_rows, rows_to_csv, run_fig1

    baseline = _baseline_lines()
    scale = _baseline_scale(baseline)
    if sizes is None:
        sizes = (16,) if quick else (16, 32, 64, 128)
    began = time.perf_counter()
    fresh = rows_to_csv(fig1_rows(run_fig1(sizes=tuple(sizes), scale=scale)))
    wall = time.perf_counter() - began
    fresh_lines = fresh.encode().split(b"\r\n")
    wanted = {str(size).encode() for size in sizes}
    expected = [baseline[0]] + [
        line for line in baseline[1:]
        if line and line.split(b",")[3] in wanted] + [b""]
    if fresh_lines != expected:
        for got, want in zip(fresh_lines, expected):
            if got != want:
                raise IdentityDrift(
                    "fig1 output drifted from results/"
                    "fig1_arch_comparison.csv:\n"
                    f"  baseline: {want.decode(errors='replace')}\n"
                    f"  fresh:    {got.decode(errors='replace')}")
        raise IdentityDrift(
            f"fig1 output drifted: {len(fresh_lines)} lines regenerated "
            f"vs {len(expected)} in the baseline subset")
    return {"identical": True, "cells": len(expected) - 2, "wall_s": wall}


def run_e2e_suite(quick: bool = False, repeats: int = 3,
                  check_identity: bool = True) -> List[BenchResult]:
    """Timed driver cells plus (optionally) the Figure 1 identity guard."""
    scale = 1 / 128 if quick else 1 / 64
    results = [
        measure("fig1_cell_sort_active16",
                lambda: _run_cell("active", "sort", 16, scale),
                repeats=1 if quick else repeats, scale=scale),
        measure("fig1_cell_select_cluster16",
                lambda: _run_cell("cluster", "select", 16, scale),
                repeats=1 if quick else repeats, scale=scale),
        measure("fig3_sort_breakdown",
                lambda: _sort_breakdown(scale),
                repeats=1 if quick else repeats, scale=scale),
    ]
    if check_identity:
        guard = fig1_identity_check(quick=quick)
        results.append(BenchResult(
            name="fig1_identity_guard", wall_s=guard["wall_s"],
            events=0, repeats=1, peak_rss_kb=peak_rss_kb(),
            extras={"identical": 1.0, "cells": float(guard["cells"])}))
    return results


def _sort_breakdown(scale: float) -> int:
    from ..experiments import run_fig3

    result = run_fig3(sizes=(16,), scale=scale)
    assert result.results
    return 0
