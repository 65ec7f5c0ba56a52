"""Drivers that regenerate every table and figure of the paper.

Each ``run_*`` function executes the simulations and returns a structured
result object whose ``render()`` produces the same rows/series the paper
reports (normalized execution times, percentage improvements, breakdown
fractions). The benchmark suite wraps these and asserts the paper's
qualitative shapes; EXPERIMENTS.md records paper-vs-measured values.

Every figure driver declares its sweep as a list of
:class:`~repro.experiments.workers.CellSpec` and executes it through
:func:`~repro.experiments.harness.execute_cells`: by default that runs
the cells inline, in order, in this process (byte-identical to the
historical drivers), but passing a
:class:`~repro.experiments.harness.SweepRunner` makes the same sweep
journaled, resumable and process-parallel (see ``docs/HARNESS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

from ..arch import (
    cost_table,
    smp_cost_estimate,
)
from ..arch.base import RunResult
from ..workloads import TABLE2, registered_tasks
from .harness import execute_cells
from .report import render_table
from .runner import DEFAULT_SCALE, Sweep, SweepCell
from .workers import CellSpec

__all__ = [
    "run_table1", "run_table2",
    "Fig1Result", "run_fig1",
    "Fig2Result", "run_fig2",
    "Fig3Result", "run_fig3",
    "Fig4Result", "run_fig4",
    "Fig5Result", "run_fig5",
]

CORE_SIZES = (16, 32, 64, 128)


# ---------------------------------------------------------------- tables
def run_table1(num_disks: int = 64) -> str:
    """Table 1: cost evolution of Active Disk vs cluster configurations."""
    rows = [(date, f"${active:,.0f}", f"${cluster:,.0f}", f"{ratio:.2f}")
            for date, active, cluster, ratio in cost_table(num_disks)]
    table = render_table(
        f"Table 1: {num_disks}-node configuration cost over one year",
        ("date", "active disks", "cluster", "active/cluster"),
        rows)
    smp = smp_cost_estimate(num_disks)
    return table + f"\nSMP ({num_disks} cpus, est.): ${smp:,.0f}"


def run_table2() -> str:
    """Table 2: the dataset used for each task."""
    rows = [(spec.task, f"{spec.total_bytes / 1e9:.0f} GB",
             spec.tuple_bytes, f"{spec.tuple_count:,}", spec.description)
            for spec in TABLE2.values()]
    return render_table(
        "Table 2: datasets for the tasks in the workload",
        ("task", "size", "tuple B", "tuples", "description"),
        rows)


# ---------------------------------------------------------------- figure 1
@dataclass
class Fig1Result:
    """Normalized execution times, tasks x architectures x sizes."""

    sweep: Sweep
    sizes: Tuple[int, ...]
    tasks: Tuple[str, ...]
    scale: float

    def normalized(self, task: str, arch: str, num_disks: int) -> float:
        """Execution time normalized to Active Disks at the same size."""
        base = self.sweep.elapsed(task, "active", num_disks)
        return self.sweep.elapsed(task, arch, num_disks) / base

    def render(self) -> str:
        blocks = []
        for size in self.sizes:
            rows = [
                (task,
                 f"{self.sweep.elapsed(task, 'active', size):.2f}s",
                 f"{self.normalized(task, 'cluster', size):.2f}",
                 f"{self.normalized(task, 'smp', size):.2f}")
                for task in self.tasks
            ]
            blocks.append(render_table(
                f"Figure 1({'abcd'[self.sizes.index(size)]}): "
                f"{size}-disk configurations "
                f"(normalized to Active Disks; scale={self.scale:g})",
                ("task", "active", "cluster", "smp"), rows))
        return "\n\n".join(blocks)


def run_fig1(sizes: Sequence[int] = CORE_SIZES,
             tasks: Optional[Sequence[str]] = None,
             scale: float = DEFAULT_SCALE, runner=None) -> Fig1Result:
    """Figure 1: all tasks on comparable configurations of all three."""
    tasks = tuple(tasks or registered_tasks())
    specs = [
        CellSpec(task=task, arch=arch, num_disks=size, scale=scale)
        for size in sizes
        for arch in ("active", "cluster", "smp")
        for task in tasks
    ]
    results = execute_cells(specs, runner)
    sweep = Sweep()
    for spec in specs:
        sweep.add(SweepCell(
            task=spec.task, arch=spec.arch, num_disks=spec.num_disks,
            variant="base", result=results[spec.key]))
    return Fig1Result(sweep=sweep, sizes=tuple(sizes), tasks=tasks,
                      scale=scale)


# ---------------------------------------------------------------- figure 2
@dataclass
class Fig2Result:
    """Interconnect-bandwidth study: AD & SMP at 200 vs 400 MB/s."""

    sweep: Sweep
    sizes: Tuple[int, ...]
    tasks: Tuple[str, ...]
    scale: float

    def normalized(self, task: str, arch: str, num_disks: int,
                   variant: str) -> float:
        base = self.sweep.elapsed(task, "active", num_disks, "200MB")
        return self.sweep.elapsed(task, arch, num_disks, variant) / base

    def render(self) -> str:
        blocks = []
        for size in self.sizes:
            rows = [
                (task,
                 "1.00",
                 f"{self.normalized(task, 'active', size, '400MB'):.2f}",
                 f"{self.normalized(task, 'smp', size, '200MB'):.2f}",
                 f"{self.normalized(task, 'smp', size, '400MB'):.2f}")
                for task in self.tasks
            ]
            blocks.append(render_table(
                f"Figure 2: {size}-disk configurations "
                f"(normalized to Active Disks @200 MB/s; scale={self.scale:g})",
                ("task", "200MB(A)", "400MB(A)", "200MB(S)", "400MB(S)"),
                rows))
        return "\n\n".join(blocks)


def run_fig2(sizes: Sequence[int] = (64, 128),
             tasks: Optional[Sequence[str]] = None,
             scale: float = DEFAULT_SCALE, runner=None) -> Fig2Result:
    """Figure 2: impact of I/O interconnect bandwidth on AD and SMP."""
    tasks = tuple(tasks or registered_tasks())
    specs = [
        CellSpec(task=task, arch=arch, num_disks=size, variant=variant,
                 scale=scale, interconnect_mb=rate_mb)
        for size in sizes
        for rate_mb, variant in ((200, "200MB"), (400, "400MB"))
        for task in tasks
        for arch in ("active", "smp")
    ]
    results = execute_cells(specs, runner)
    sweep = Sweep()
    for spec in specs:
        sweep.add(SweepCell(spec.task, spec.arch, spec.num_disks,
                            spec.variant, results[spec.key]))
    return Fig2Result(sweep=sweep, sizes=tuple(sizes), tasks=tasks,
                      scale=scale)


# ---------------------------------------------------------------- figure 3
@dataclass
class Fig3Result:
    """Sort breakdown on Active Disks: per-phase busy/idle fractions."""

    results: Dict[Tuple[int, str], RunResult]
    sizes: Tuple[int, ...]
    scale: float

    def breakdown(self, num_disks: int, variant: str = "base") -> Dict:
        """Figure 3(b)-style fractions of the sort (first) phase."""
        result = self.results[(num_disks, variant)]
        phase = result.phases[0]
        return phase.fractions()

    def phase_elapsed(self, num_disks: int,
                      variant: str = "base") -> Tuple[float, float]:
        result = self.results[(num_disks, variant)]
        return tuple(p.elapsed for p in result.phases)

    def render(self) -> str:
        rows = []
        for size in self.sizes:
            for variant in ("base", "fastdisk", "fastio"):
                result = self.results[(size, variant)]
                p1, p2 = result.phases
                f1 = p1.fractions()
                f2 = p2.fractions()
                rows.append((
                    f"{size}/{variant}",
                    f"{result.elapsed:.2f}s",
                    f"{f1.get('partitioner', 0):.2f}",
                    f"{f1.get('append', 0):.2f}",
                    f"{f1.get('sort', 0):.2f}",
                    f"{f1.get('idle', 0):.2f}",
                    f"{f2.get('merge', 0):.2f}",
                    f"{f2.get('idle', 0):.2f}",
                ))
        return render_table(
            f"Figure 3: sort breakdown on Active Disks (scale={self.scale:g})",
            ("config", "total", "P1:part", "P1:append", "P1:sort",
             "P1:idle", "P2:merge", "P2:idle"),
            rows)


def run_fig3(sizes: Sequence[int] = CORE_SIZES,
             scale: float = DEFAULT_SCALE, runner=None) -> Fig3Result:
    """Figure 3: sort phases, plus Fast Disk and Fast I/O variants."""
    variant_fields = {
        "base": {},
        "fastdisk": {"drive": "HITACHI_DK3E1T91"},
        "fastio": {"interconnect_mb": 400},
    }
    specs = [
        CellSpec(task="sort", arch="active", num_disks=size,
                 variant=variant, scale=scale, **fields)
        for size in sizes
        for variant, fields in variant_fields.items()
    ]
    executed = execute_cells(specs, runner)
    results: Dict[Tuple[int, str], RunResult] = {
        (spec.num_disks, spec.variant): executed[spec.key]
        for spec in specs
    }
    return Fig3Result(results=results, sizes=tuple(sizes), scale=scale)


# ---------------------------------------------------------------- figure 4
@dataclass
class Fig4Result:
    """Memory study: % improvement over the 32 MB baseline."""

    elapsed: Dict[Tuple[str, int, int], float]   # (task, disks, MB) -> s
    sizes: Tuple[int, ...]
    tasks: Tuple[str, ...]
    memories_mb: Tuple[int, ...]
    scale: float

    def improvement(self, task: str, num_disks: int,
                    memory_mb: int = 64) -> float:
        """Percent improvement of ``memory_mb`` over 32 MB."""
        base = self.elapsed[(task, num_disks, 32)]
        other = self.elapsed[(task, num_disks, memory_mb)]
        return 100.0 * (base - other) / base

    def render(self) -> str:
        blocks = []
        for memory in self.memories_mb:
            if memory == 32:
                continue
            rows = [
                tuple([task] + [f"{self.improvement(task, size, memory):.1f}%"
                                for size in self.sizes])
                for task in self.tasks
            ]
            blocks.append(render_table(
                f"Figure 4: % improvement from {memory} MB disk memory "
                f"(vs 32 MB; scale={self.scale:g})",
                tuple(["task"] + [f"{s} disks" for s in self.sizes]),
                rows))
        return "\n\n".join(blocks)


def run_fig4(sizes: Sequence[int] = CORE_SIZES,
             tasks: Optional[Sequence[str]] = None,
             memories_mb: Sequence[int] = (32, 64, 128),
             scale: float = DEFAULT_SCALE, runner=None) -> Fig4Result:
    """Figure 4: impact of Active Disk memory (32/64/128 MB)."""
    tasks = tuple(tasks or registered_tasks())
    specs = [
        CellSpec(task=task, arch="active", num_disks=size,
                 variant=f"mem{memory}", scale=scale, memory_mb=memory)
        for size in sizes
        for memory in memories_mb
        for task in tasks
    ]
    results = execute_cells(specs, runner)
    elapsed: Dict[Tuple[str, int, int], float] = {
        (spec.task, spec.num_disks, spec.memory_mb):
            results[spec.key].elapsed
        for spec in specs
    }
    return Fig4Result(elapsed=elapsed, sizes=tuple(sizes), tasks=tasks,
                      memories_mb=tuple(memories_mb), scale=scale)


# ---------------------------------------------------------------- figure 5
@dataclass
class Fig5Result:
    """Communication-architecture study: via-front-end vs direct."""

    elapsed: Dict[Tuple[str, int, str], float]  # (task, disks, mode) -> s
    sizes: Tuple[int, ...]
    tasks: Tuple[str, ...]
    scale: float

    def slowdown(self, task: str, num_disks: int) -> float:
        direct = self.elapsed[(task, num_disks, "direct")]
        restricted = self.elapsed[(task, num_disks, "restricted")]
        return restricted / direct

    def render(self) -> str:
        rows = [
            tuple([task] + [f"{self.slowdown(task, size):.2f}"
                            for size in self.sizes])
            for task in self.tasks
        ]
        return render_table(
            "Figure 5: slowdown when all communication passes through "
            f"the front-end (scale={self.scale:g})",
            tuple(["task"] + [f"{s} disks" for s in self.sizes]),
            rows)


def run_fig5(sizes: Sequence[int] = (32, 64, 128),
             tasks: Optional[Sequence[str]] = None,
             scale: float = DEFAULT_SCALE, runner=None) -> Fig5Result:
    """Figure 5: impact of restricting direct disk-to-disk communication."""
    tasks = tuple(tasks or registered_tasks())
    specs = [
        CellSpec(task=task, arch="active", num_disks=size, variant=mode,
                 scale=scale, restricted=(mode == "restricted"))
        for size in sizes
        for task in tasks
        for mode in ("direct", "restricted")
    ]
    results = execute_cells(specs, runner)
    elapsed: Dict[Tuple[str, int, str], float] = {
        (spec.task, spec.num_disks, spec.variant):
            results[spec.key].elapsed
        for spec in specs
    }
    return Fig5Result(elapsed=elapsed, sizes=tuple(sizes), tasks=tasks,
                      scale=scale)
