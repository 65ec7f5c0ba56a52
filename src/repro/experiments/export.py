"""Machine-readable export of experiment results (CSV / JSON).

Every figure-result object renders human-readable tables; downstream
analysis (plotting, regression tracking) wants structured data. This
module flattens results to row dictionaries and serializes them.

It also holds the **Figure 1 identity guard**: the simulator is
deterministic, so regenerating Figure 1 must reproduce the checked-in
``results/fig1_arch_comparison.csv`` byte for byte. Any drift means a
change altered simulated behaviour.
"""

from __future__ import annotations

import csv
import io
import json
import pathlib
import time
from typing import Dict, List

from .figures import (
    Fig1Result,
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Fig5Result,
    run_fig1,
)

__all__ = ["fig1_rows", "fig2_rows", "fig3_rows", "fig4_rows",
           "fig5_rows", "rows_to_csv", "rows_to_json",
           "fig1_identity_check", "IdentityDrift", "FIG1_BASELINE"]

#: Checked-in Figure 1 baseline the identity guard compares against.
FIG1_BASELINE = (pathlib.Path(__file__).resolve().parents[3]
                 / "results" / "fig1_arch_comparison.csv")

Row = Dict[str, object]


def fig1_rows(result: Fig1Result) -> List[Row]:
    rows: List[Row] = []
    for size in result.sizes:
        for task in result.tasks:
            for arch in ("active", "cluster", "smp"):
                rows.append({
                    "figure": "fig1", "task": task, "arch": arch,
                    "disks": size, "scale": result.scale,
                    "elapsed_s": result.sweep.elapsed(task, arch, size),
                    "normalized": result.normalized(task, arch, size),
                })
    return rows


def fig2_rows(result: Fig2Result) -> List[Row]:
    rows: List[Row] = []
    for size in result.sizes:
        for task in result.tasks:
            for arch in ("active", "smp"):
                for variant in ("200MB", "400MB"):
                    rows.append({
                        "figure": "fig2", "task": task, "arch": arch,
                        "disks": size, "variant": variant,
                        "scale": result.scale,
                        "elapsed_s": result.sweep.elapsed(
                            task, arch, size, variant),
                        "normalized": result.normalized(
                            task, arch, size, variant),
                    })
    return rows


def fig3_rows(result: Fig3Result) -> List[Row]:
    rows: List[Row] = []
    for (size, variant), run in result.results.items():
        for phase in run.phases:
            fractions = phase.fractions()
            for bucket, fraction in fractions.items():
                rows.append({
                    "figure": "fig3", "disks": size, "variant": variant,
                    "phase": phase.name, "bucket": bucket,
                    "fraction": fraction, "phase_elapsed_s": phase.elapsed,
                    "scale": result.scale,
                })
    return rows


def fig4_rows(result: Fig4Result) -> List[Row]:
    rows: List[Row] = []
    for (task, disks, memory), elapsed in result.elapsed.items():
        row: Row = {
            "figure": "fig4", "task": task, "disks": disks,
            "memory_mb": memory, "elapsed_s": elapsed,
            "scale": result.scale,
        }
        if memory != 32:
            row["improvement_pct"] = result.improvement(
                task, disks, memory)
        rows.append(row)
    return rows


def fig5_rows(result: Fig5Result) -> List[Row]:
    rows: List[Row] = []
    for (task, disks, mode), elapsed in result.elapsed.items():
        rows.append({
            "figure": "fig5", "task": task, "disks": disks,
            "mode": mode, "elapsed_s": elapsed,
            "slowdown": result.slowdown(task, disks),
            "scale": result.scale,
        })
    return rows


def rows_to_csv(rows: List[Row]) -> str:
    """Serialize rows to CSV text (union of all keys as header)."""
    if not rows:
        return ""
    fields: List[str] = []
    for row in rows:
        for key in row:
            if key not in fields:
                fields.append(key)
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=fields, restval="")
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()


def rows_to_json(rows: List[Row]) -> str:
    """Serialize rows to a JSON array."""
    return json.dumps(rows, indent=2, sort_keys=True)


class IdentityDrift(AssertionError):
    """The regenerated figure differs from the checked-in baseline."""


def _baseline_lines() -> List[bytes]:
    return FIG1_BASELINE.read_bytes().split(b"\r\n")


def fig1_identity_check(quick: bool = False) -> dict:
    """Regenerate Figure 1 and byte-compare it to the baseline CSV.

    ``quick`` restricts the sweep to the 16-disk column and compares it
    against the corresponding subset of the baseline, which keeps the CI
    smoke job fast while still guarding every task x architecture cell.

    Returns ``{"identical": True, "cells": N, "wall_s": ...}`` or raises
    :class:`IdentityDrift` with the first differing line (or both line
    counts, when every shared line matches).
    """
    baseline = _baseline_lines()
    # Column layout: figure,task,arch,disks,scale,elapsed_s,normalized
    scale = float(baseline[1].split(b",")[4])
    sizes = (16,) if quick else (16, 32, 64, 128)
    began = time.perf_counter()
    fresh = rows_to_csv(fig1_rows(run_fig1(sizes=sizes, scale=scale)))
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
