"""Experiment drivers and the registry that builds the paper's figures and tables."""

from .figures import (
    Fig1Result,
    Fig2Result,
    Fig3Result,
    Fig4Result,
    Fig5Result,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_table1,
    run_table2,
)
from .export import (
    FIG1_BASELINE,
    IdentityDrift,
    fig1_identity_check,
    fig1_rows,
    fig2_rows,
    fig3_rows,
    fig4_rows,
    fig5_rows,
    rows_to_csv,
    rows_to_json,
)
from .degraded import (
    DegradedCell,
    DegradedResult,
    drive_failure_plan,
    run_degraded_sweep,
)
from .artifacts import (
    atomic_write_text,
    result_from_dict,
    result_to_dict,
    verify_manifest,
    write_manifest,
)
from .harness import (
    SweepInterrupted,
    SweepRunner,
    execute_cells,
    resume_sweep,
)
from .journal import AppendLog, SweepJournal
from .workers import (
    CellOutcome,
    CellSpec,
    build_config,
    drain_pool,
    run_cell,
    run_cells,
)
from .report import render_bars, render_grouped_bars, render_series, render_table
from .registry import ARTIFACTS, BUILD_JOURNAL, build_artifacts
from .runner import (
    ARCHITECTURES,
    DEFAULT_SCALE,
    Sweep,
    SweepCell,
    config_for,
    run_concurrent,
    run_task,
)

__all__ = [
    "ARCHITECTURES", "DEFAULT_SCALE", "config_for", "run_task",
    "run_concurrent", "Sweep", "SweepCell",
    "run_table1", "run_table2",
    "run_fig1", "run_fig2", "run_fig3", "run_fig4", "run_fig5",
    "Fig1Result", "Fig2Result", "Fig3Result", "Fig4Result", "Fig5Result",
    "render_table", "render_series", "render_bars", "render_grouped_bars",
    "ARTIFACTS", "BUILD_JOURNAL", "build_artifacts",
    "fig1_rows", "fig2_rows", "fig3_rows", "fig4_rows", "fig5_rows",
    "rows_to_csv", "rows_to_json",
    "fig1_identity_check", "IdentityDrift", "FIG1_BASELINE",
    "run_degraded_sweep", "drive_failure_plan",
    "DegradedCell", "DegradedResult",
    "SweepRunner", "SweepInterrupted", "SweepJournal", "AppendLog",
    "execute_cells", "resume_sweep",
    "CellSpec", "CellOutcome", "build_config", "run_cell", "run_cells",
    "drain_pool",
    "atomic_write_text", "write_manifest", "verify_manifest",
    "result_to_dict", "result_from_dict",
]
