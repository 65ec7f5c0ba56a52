"""Experiment runner: build a machine, run a task, collect results.

Every experiment driver goes through :func:`run_task`, which constructs a
fresh simulator + machine per run (simulations are single-use), and
:func:`config_for`, which maps an architecture name to its paper-default
configuration.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from ..arch import (
    ActiveDiskConfig,
    ArchConfig,
    ClusterConfig,
    RunResult,
    SMPConfig,
    TaskProgram,
    build_machine,
)
from ..sim import Simulator
from ..workloads import build_program

__all__ = ["ARCHITECTURES", "config_for", "run_task", "run_concurrent",
           "run_task_with_artifacts", "Sweep", "SweepCell"]

ARCHITECTURES = ("active", "cluster", "smp")

#: The committed scale: every file in ``results/`` is built at 1/32 of
#: the paper's dataset sizes, and every driver, cell and CLI command
#: defaults to it. Bandwidth/compute ratios do not depend on the scale
#: (DESIGN.md §2).
DEFAULT_SCALE = 1.0 / 32.0


_CONFIG_CLASSES = {
    "active": ActiveDiskConfig,
    "cluster": ClusterConfig,
    "smp": SMPConfig,
}


def config_for(arch: str, num_disks: int, **overrides) -> ArchConfig:
    """The paper's core configuration for ``arch`` at ``num_disks``.

    ``overrides`` must name fields of that architecture's config class;
    a misspelled or foreign field raises a :class:`ValueError` listing
    the valid ones (rather than the constructor's opaque ``TypeError``).
    ``num_disks`` is its own argument, not an override.
    """
    cls = _CONFIG_CLASSES.get(arch)
    if cls is None:
        raise ValueError(
            f"unknown architecture {arch!r}; pick one of {ARCHITECTURES}")
    if overrides:
        valid = sorted(f.name for f in dataclasses.fields(cls)
                       if f.name != "num_disks")
        unknown = sorted(set(overrides) - set(valid))
        if unknown:
            raise ValueError(
                f"unknown {cls.__name__} field(s) "
                f"{', '.join(repr(name) for name in unknown)}; "
                f"valid fields: {', '.join(valid)}")
    return cls(num_disks=num_disks, **overrides)


def _simulator(invariants=None) -> Simulator:
    """A fresh simulator with ``invariants`` (by default the auditor of
    an enclosing :func:`repro.invariants.armed` block) installed."""
    sim = Simulator()
    if invariants is None:
        from ..invariants import default_auditor
        invariants = default_auditor()
    if invariants is not None:
        invariants.install(sim)
    return sim


def run_task(config: ArchConfig, task: str,
             scale: float = DEFAULT_SCALE,
             telemetry=None, fault_plan=None,
             fault_seed: Optional[int] = None,
             invariants=None,
             program: Optional[TaskProgram] = None) -> RunResult:
    """Simulate ``task`` on a fresh machine built from ``config``.

    Pass a fresh :class:`~repro.telemetry.Telemetry` hub to record a
    structured trace of the run: it is installed on the simulator
    *before* the machine is built, so every component registers its
    probes. The same hub also gets ``task``/``arch``/``scale`` metadata
    for the exporters.

    Pass a :class:`~repro.faults.FaultPlan` to run in degraded mode: the
    injector is installed before the machine is built (so components
    register their fault ports), and the run's fault counters are merged
    into :attr:`RunResult.extras`. ``fault_seed`` overrides the plan's
    own seed; identical (plan, seed) pairs replay identical timelines.

    Pass an armed :class:`~repro.invariants.InvariantAuditor` (or enter
    the :func:`repro.invariants.armed` context, which makes every
    ``run_task`` build its own) to audit the run's conservation laws:
    the hub is installed before the machine is built so every component
    self-registers, and any broken ledger raises a structured
    :class:`~repro.invariants.InvariantViolation`. ``program`` runs a
    prebuilt program (a skewed variant, a compiled query plan) in place
    of ``task``'s own.
    """
    sim = _simulator(invariants)
    if telemetry is not None:
        telemetry.install(sim)
        telemetry.meta.update({
            "task": task,
            "arch": config.arch,
            "num_disks": config.num_disks,
            "scale": scale,
        })
    injector = None
    if fault_plan is not None:
        from ..faults import FaultInjector
        injector = FaultInjector(fault_plan, seed=fault_seed)
        injector.install(sim)
    machine = build_machine(sim, config)
    if program is None:
        program = build_program(task, config, scale)
    result = machine.run(program)
    if injector is not None:
        result.extras.update(
            {key: float(value)
             for key, value in sorted(injector.counters.items())})
    return result


def run_concurrent(config: ArchConfig, tasks: Sequence[str],
                   scale: float = DEFAULT_SCALE) -> List[RunResult]:
    """Simulate ``tasks`` at once on one fresh machine (a mixed
    workload), set up as :func:`run_task` does; one result per task."""
    machine = build_machine(_simulator(), config)
    return machine.run_concurrent(
        [build_program(task, config, scale) for task in tasks])


def run_task_with_artifacts(config: ArchConfig, task: str,
                            directory: str,
                            scale: float = DEFAULT_SCALE,
                            sample_interval: Optional[float] = 0.25,
                            prefix: Optional[str] = None) -> RunResult:
    """Run a task with telemetry and write trace/metrics/summary files.

    Artifacts land in ``directory`` as ``{prefix}.trace.json``,
    ``{prefix}.metrics.json`` and ``{prefix}.summary.txt``; the default
    prefix is ``{task}-{arch}-{num_disks}``.
    """
    from ..telemetry import Telemetry, write_artifacts

    telemetry = Telemetry(sample_interval=sample_interval)
    result = run_task(config, task, scale, telemetry=telemetry)
    if prefix is None:
        prefix = f"{task}-{config.arch}-{config.num_disks}"
    write_artifacts(telemetry, directory, prefix=prefix)
    return result


@dataclass
class SweepCell:
    """One (task, config) cell of a sweep."""

    task: str
    arch: str
    num_disks: int
    variant: str
    result: RunResult

    @property
    def elapsed(self) -> float:
        return self.result.elapsed


@dataclass
class Sweep:
    """A collection of runs, indexable by (task, arch, disks, variant)."""

    cells: List[SweepCell] = field(default_factory=list)

    def add(self, cell: SweepCell) -> None:
        self.cells.append(cell)

    def get(self, task: str, arch: str, num_disks: int,
            variant: str = "base") -> SweepCell:
        for cell in self.cells:
            if (cell.task == task and cell.arch == arch
                    and cell.num_disks == num_disks
                    and cell.variant == variant):
                return cell
        raise KeyError(
            f"no cell ({task}, {arch}, {num_disks}, {variant}) in sweep")

    def elapsed(self, task: str, arch: str, num_disks: int,
                variant: str = "base") -> float:
        return self.get(task, arch, num_disks, variant).elapsed

    def tasks(self) -> Tuple[str, ...]:
        seen = []
        for cell in self.cells:
            if cell.task not in seen:
                seen.append(cell.task)
        return tuple(seen)
