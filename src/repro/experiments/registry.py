"""The artifact registry: each committed file under ``results/``, once.

Each :class:`Artifact` declares a file stem under ``results/``, the
driver call that fixes its cell grid, and the renderer of its files.
:func:`build_artifacts` (``repro build``) runs the union of the grids,
each distinct configuration once, then the ablations' inline
simulations (:mod:`.ablations`), and writes every file from that one
store of results. The last artifact is the scorecard of the paper's
claims (:mod:`.scorecard`), whose cells are all figure cells::

    build_artifacts("results", runner=SweepRunner(journal, jobs=2))

The five figure drivers (:data:`FIGURE_DRIVERS`) are also the grids of
``repro sweep`` and the sweep service.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch.base import RunResult
from .ablations import ABLATIONS
from .artifacts import MANIFEST_NAME, atomic_write_text, write_manifest
from .export import (
    fig1_rows,
    fig2_rows,
    fig3_rows,
    fig4_rows,
    fig5_rows,
    rows_to_csv,
)
from .figures import (
    Fig1Result,
    run_fig1,
    run_fig2,
    run_fig3,
    run_fig4,
    run_fig5,
    run_table1,
    run_table2,
)
from .harness import execute_cells
from .runner import ARCHITECTURES, DEFAULT_SCALE
from .workers import CellSpec, build_config

__all__ = ["ARTIFACTS", "Artifact", "BUILD_JOURNAL", "Build",
           "FIGURE_DRIVERS", "FigureDriver", "ScaleInvariance",
           "build_artifacts", "configuration", "declared_cells"]

#: The journal ``repro build`` keeps in its output directory.
BUILD_JOURNAL = "build.journal.jsonl"


@dataclass(frozen=True)
class FigureDriver:
    """One figure's driver plus the CLI-facing defaults."""

    run_fn: Callable
    rows_fn: Callable
    takes_tasks: bool
    default_sizes: Tuple[int, ...]

    def render(self, result) -> Tuple[str, str]:
        """The figure's ``.txt`` and ``.csv`` file contents."""
        return result.render() + "\n", rows_to_csv(self.rows_fn(result))


#: The figure sweeps of ``repro sweep`` and the service, and the grids
#: of the five figure artifacts.
FIGURE_DRIVERS: Dict[str, FigureDriver] = {
    "fig1": FigureDriver(run_fig1, fig1_rows, True, (16, 32, 64, 128)),
    "fig2": FigureDriver(run_fig2, fig2_rows, True, (64, 128)),
    "fig3": FigureDriver(run_fig3, fig3_rows, False, (16, 32, 64, 128)),
    "fig4": FigureDriver(run_fig4, fig4_rows, True, (16, 32, 64, 128)),
    "fig5": FigureDriver(run_fig5, fig5_rows, True, (32, 64, 128)),
}


# ------------------------------------------------------------- runners
class _Recorder:
    """A runner that records the cells it is asked for and answers each
    with an empty result, which a driver only files away. It runs no
    inline simulation."""

    def __init__(self):
        self.specs: List[CellSpec] = []

    def run(self, specs, after_cell=None):
        self.specs.extend(specs)
        return {spec.key: RunResult(spec.task, spec.arch, spec.num_disks,
                                    0.0, [])
                for spec in specs}

    def simulate(self, fn, *args):
        return None


class _Store:
    """A runner that answers each cell from built results, and runs
    (and counts) each inline simulation it is asked for."""

    def __init__(self, results: Dict[Tuple, RunResult]):
        self.results = results
        self.simulated = 0

    def run(self, specs, after_cell=None):
        return {spec.key: self.results[configuration(spec)]
                for spec in specs}

    def simulate(self, fn, *args):
        self.simulated += 1
        return fn(*args)


def declared_cells(run: Callable[[object], object]) -> List[CellSpec]:
    """The cells ``run(runner)`` asks its runner for, in order."""
    recorder = _Recorder()
    run(recorder)
    return recorder.specs


def configuration(spec: CellSpec) -> Tuple:
    """What a cell's result depends on. ``variant`` is only a label:
    Figure 2's 200 MB cells are Figure 1's base configurations."""
    return (spec.task, spec.scale, build_config(spec), spec.fault_disk,
            spec.fault_at, spec.fault_seed)


# ----------------------------------------------------------- artifacts
@dataclass(frozen=True)
class Artifact:
    """One committed file stem. ``run(runner, scale)`` asks ``runner``
    for the artifact's cells, and for any inline simulation through
    ``runner.simulate(fn, *args)``, and returns its result object;
    ``render`` turns that into one text per suffix."""

    name: str
    suffixes: Tuple[str, ...]
    run: Callable[[object, float], object]
    render: Callable[[object], Tuple[str, ...]]

    @property
    def files(self) -> Tuple[str, ...]:
        return tuple(self.name + suffix for suffix in self.suffixes)

    def cells(self, scale: float = DEFAULT_SCALE) -> List[CellSpec]:
        return declared_cells(lambda runner: self.run(runner, scale))


def _figure(name: str, figure: str, **kwargs) -> Artifact:
    driver = FIGURE_DRIVERS[figure]

    def run(runner, scale):
        return driver.run_fn(sizes=driver.default_sizes, scale=scale,
                             runner=runner, **kwargs)
    return Artifact(name, (".txt", ".csv"), run, driver.render)


def _report(name: str, run, render=str) -> Artifact:
    return Artifact(name, (".txt",), run,
                    lambda result: (render(result) + "\n",))


def _price_performance(runner, scale: float):
    """The abstract's bottom line: simulated times priced with the
    Table 1 cost model, for every architecture."""
    from ..analysis import PricePerformance, configuration_price

    specs = [CellSpec(task=task, arch=arch, num_disks=disks, scale=scale)
             for task in ("select", "groupby", "sort", "join")
             for disks in (16, 64, 128)
             for arch in ARCHITECTURES]
    results = execute_cells(specs, runner)
    return [PricePerformance(task=spec.task, arch=spec.arch,
                             num_disks=spec.num_disks,
                             elapsed=results[spec.key].elapsed,
                             price=configuration_price(build_config(spec)))
            for spec in specs]


def _price_performance_table(cells) -> str:
    from ..analysis import price_performance_table
    return price_performance_table(cells)


@dataclass
class ScaleInvariance:
    """Figure 1's normalized ratios at two scales a factor of 4 apart:
    the evidence that the committed scale preserves the paper's shapes
    (DESIGN.md §2)."""

    coarse: Fig1Result
    fine: Fig1Result

    def rows(self):
        """(task, disks, arch, coarse ratio, fine ratio, drift) rows."""
        for size in self.fine.sizes:
            for task in self.fine.tasks:
                for arch in ("cluster", "smp"):
                    a = self.coarse.normalized(task, arch, size)
                    b = self.fine.normalized(task, arch, size)
                    yield task, size, arch, a, b, abs(a - b) / b

    @property
    def drifts(self) -> List[float]:
        return [row[-1] for row in self.rows()]

    def render(self) -> str:
        lines = ["Meta: normalized ratios at two scales "
                 f"({self.coarse.scale:g} vs {self.fine.scale:g})"]
        lines.extend(f"  {task:8s}@{size:<3d} {arch:8s} "
                     f"{a:5.2f} vs {b:5.2f}  (drift {drift:5.1%})"
                     for task, size, arch, a, b, drift in self.rows())
        return "\n".join(lines)


def _scorecard(runner, scale: float):
    from .scorecard import run_scorecard  # builds no claim at import
    return run_scorecard(runner, scale)


def _scale_invariance(runner, scale: float) -> ScaleInvariance:
    return ScaleInvariance(*(
        run_fig1(sizes=(16, 64), tasks=("select", "sort", "groupby"),
                 scale=at, runner=runner)
        for at in (scale / 4, scale)))


#: Every committed file stem, in build order.
ARTIFACTS: Dict[str, Artifact] = {artifact.name: artifact for artifact in (
    _figure("fig1_arch_comparison", "fig1"),
    _figure("fig2_interconnect", "fig2"),
    _figure("fig3_sort_breakdown", "fig3"),
    _figure("fig4_memory", "fig4",
            tasks=("select", "sort", "join", "dcube", "mview",
                   "aggregate", "groupby", "dmine")),
    _figure("fig5_disk_to_disk", "fig5"),
    _report("table1_costs", lambda runner, scale: run_table1(64)),
    _report("table2_datasets", lambda runner, scale: run_table2()),
    _report("price_performance", _price_performance,
            _price_performance_table),
    _report("scale_invariance", _scale_invariance, ScaleInvariance.render),
    *(_report(name, run, render) for name, run, render in ABLATIONS),
    _report("scorecard", _scorecard, lambda card: card.render()),
)}


# --------------------------------------------------------------- build
@dataclass
class Build:
    """What :func:`build_artifacts` did."""

    results: Dict[str, object]   # artifact name -> its result object
    files: List[str]             # paths written, MANIFEST.json last
    declared: int                # cells the artifacts declare
    distinct: int                # configurations run (or journal-reloaded)
    inline: int                  # inline simulations run


def build_artifacts(out_dir: str, names: Optional[Sequence[str]] = None,
                    *, scale: float = DEFAULT_SCALE, runner=None,
                    cache: Optional[Dict[Tuple, RunResult]] = None
                    ) -> Build:
    """Build the named artifacts (default: all) into ``out_dir``.

    The distinct configurations of their grids run through ``runner``
    (inline without one). Where two configurations share a label, as
    Figure 1's cells at two scales do, the later one's variant gets its
    scale appended, so journal keys stay unique. ``cache`` keeps
    results by configuration across calls; a cached configuration does
    not run again. The ablations' inline simulations then run in this
    process, unjournaled, as each artifact is assembled. Each file is
    written atomically, then ``MANIFEST.json``.
    """
    artifacts = [ARTIFACTS[name] for name in (names or ARTIFACTS)]
    cache = {} if cache is None else cache
    declared = [spec for artifact in artifacts
                for spec in artifact.cells(scale)]
    todo: Dict[Tuple, CellSpec] = {}
    keys = set()
    for spec in declared:
        identity = configuration(spec)
        if identity in cache or identity in todo:
            continue
        if spec.key in keys:
            spec = replace(spec, variant=f"{spec.variant}@{spec.scale:g}")
        keys.add(spec.key)
        todo[identity] = spec
    results = execute_cells(list(todo.values()), runner)
    cache.update((identity, results[spec.key])
                 for identity, spec in todo.items())

    store = _Store(cache)
    built: Dict[str, object] = {}
    files: List[str] = []
    for artifact in artifacts:
        built[artifact.name] = artifact.run(store, scale)
        for name, text in zip(artifact.files,
                              artifact.render(built[artifact.name])):
            files.append(os.path.join(out_dir, name))
            atomic_write_text(files[-1], text)
    write_manifest(out_dir)
    files.append(os.path.join(out_dir, MANIFEST_NAME))
    return Build(built, files, len(declared), len(todo), store.simulated)
