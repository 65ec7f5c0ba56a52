"""The seven ablations and the composite query suite, as registry artifacts.

Each ablation tests one of the paper's recommendations or assumptions
beyond its figures (DESIGN.md lists them). Its run function asks the
registry's runner for every cell a :class:`CellSpec` can express: the
paper's base configurations, which the figure grids already hold, the
FibreSwitch fabric and restricted routing. Each knob that only one
artifact varies runs inline through ``runner.simulate(fn, *args)``,
which calls ``fn`` once per build and not at all while the registry
only collects cells. Those knobs are the disk CPU and drive generation,
the front-end clock, the Ethernet fabric, request size and queue depth,
key skew, concurrent mixes, composite queries and the split-group SMP
program.

A run function returns raw elapsed times; ratios are taken by the
renderers and by the shape tests in ``benchmarks/``.
"""

from __future__ import annotations

from ..arch import ActiveDiskConfig, SMPConfig
from ..disk import SEAGATE_ST39102, fast_variant
from .harness import execute_cells
from .report import render_table
from .runner import (
    ARCHITECTURES,
    DEFAULT_SCALE,
    config_for,
    run_concurrent,
    run_task,
)
from .workers import CellSpec, build_config

__all__ = ["ABLATIONS"]

KB = 1024
MB = 1_000_000
EVOLUTION_DISKS = 32
MIXED_DISKS = 32
QUERY_DISKS = 64
SKEW_DISKS = 64
SKEW_THETAS = (0.0, 0.5, 1.0)


def _elapsed(config, task: str, scale: float, program=None) -> float:
    return run_task(config, task, scale, program=program).elapsed


def _cells(runner, specs):
    """Elapsed time of each spec, in order."""
    results = execute_cells(specs, runner)
    return [results[spec.key].elapsed for spec in specs]


# ------------------------------------------------------------ evolution
def _evolution(runner, scale):
    """Select at 32 disks: drive speedup x disk CPU MHz -> elapsed."""
    grid = {(1.0, 200.0): _cells(runner, [CellSpec(
        "select", "active", EVOLUTION_DISKS, scale=scale)])[0]}
    for speedup in (1.0, 2.0, 4.0):
        drive = (SEAGATE_ST39102 if speedup == 1.0
                 else fast_variant(SEAGATE_ST39102, speedup))
        for mhz in (200.0, 400.0, 800.0):
            if (speedup, mhz) not in grid:
                grid[(speedup, mhz)] = runner.simulate(
                    _elapsed, ActiveDiskConfig(num_disks=EVOLUTION_DISKS,
                                               drive=drive,
                                               disk_cpu_mhz=mhz),
                    "select", scale)
    return grid


def _render_evolution(grid) -> str:
    cpus = sorted({mhz for _, mhz in grid})
    lines = [f"Ablation: drive-generation x embedded-CPU sweep "
             f"(select, {EVOLUTION_DISKS} disks)",
             "rows = drive speedup, cols = disk CPU MHz",
             "        " + "  ".join(f"{int(mhz):>7d}" for mhz in cpus)]
    for speedup in sorted({speedup for speedup, _ in grid}):
        cells = "  ".join(f"{grid[(speedup, mhz)]:6.2f}s" for mhz in cpus)
        lines.append(f"  x{speedup:<4.1f} {cells}")
    return "\n".join(lines)


# ---------------------------------------------------------- fibreswitch
def _fibreswitch(runner, scale):
    """Sort on Active Disks: (disks, FibreSwitch segments or None for
    the dual loop) -> elapsed."""
    keys = [(disks, segments) for disks in (64, 128)
            for segments in (None, 4, 8)]
    return dict(zip(keys, _cells(runner, [
        CellSpec("sort", "active", disks, scale=scale,
                 variant=f"fibreswitch{segments}" if segments else "base",
                 fibreswitch_segments=segments)
        for disks, segments in keys])))


def _render_fibreswitch(elapsed) -> str:
    lines = ["Ablation: FibreSwitch vs dual FC-AL (external sort)"]
    for (disks, segments), value in elapsed.items():
        if segments is None:
            lines.append(f"{disks} disks:")
        label = (f"fibreswitch x{segments} (~{segments * 100} MB/s)"
                 if segments else "dual loop (200 MB/s)")
        lines.append(f"  {label:28s} {value:7.2f}s "
                     f"({elapsed[(disks, None)] / value:4.2f}x vs dual loop)")
    return "\n".join(lines)


# ------------------------------------------------------------ front-end
def _frontend(runner, scale):
    """64 disks: (task, mode, 450 MHz elapsed, 1 GHz elapsed) rows."""
    specs = [CellSpec(task, "active", 64, scale=scale,
                      variant="restricted" if restricted else "base",
                      restricted=restricted)
             for task, restricted in (("select", False), ("groupby", False),
                                      ("sort", True))]
    return [(spec.task, "restricted" if spec.restricted else "direct", base,
             runner.simulate(_elapsed,
                             build_config(spec).with_frontend_mhz(1000.0),
                             spec.task, scale))
            for spec, base in zip(specs, _cells(runner, specs))]


def _render_frontend(rows) -> str:
    lines = ["Ablation: 450 MHz vs 1 GHz front-end (64 disks)",
             "task      mode        450MHz    1GHz    speedup"]
    lines.extend(f"{task:9s} {mode:10s} {base:7.2f}s {fast:6.2f}s "
                 f"{base / fast:5.2f}x" for task, mode, base, fast in rows)
    return "\n".join(lines)


# ------------------------------------------------------------ I/O tuning
def _smp_shuffle(split: bool, scale: float) -> float:
    """A 16-disk SMP shuffle+write phase with or without split disk
    groups; it moves 512 MB at the committed scale."""
    from ..arch.program import CostComponent, Phase, TaskProgram
    program = TaskProgram(task="sortish", phases=(
        Phase(name="move",
              read_bytes_total=round(512 * MB * scale / DEFAULT_SCALE),
              cpu=(CostComponent("partition", 10.0),),
              shuffle_fraction=1.0,
              recv=(CostComponent("append", 10.0),),
              recv_write_fraction=1.0,
              split_disk_groups=split),))
    return _elapsed(SMPConfig(num_disks=16), program.task, scale, program)


def _io_tuning(runner, scale):
    """16 disks: the paper's request size, queue depth and SMP disk
    groups against untuned settings -> elapsed."""
    def select(request_bytes, depth):
        return runner.simulate(_elapsed, ActiveDiskConfig(
            num_disks=16, io_request_bytes=request_bytes, queue_depth=depth),
            "select", scale)
    return {
        "small_requests": select(32 * KB, 4),
        "shallow_queue": select(256 * KB, 1),
        "tuned": _cells(runner, [CellSpec("select", "active", 16,
                                          scale=scale)])[0],
        "interleaved": runner.simulate(_smp_shuffle, False, scale),
        "split": runner.simulate(_smp_shuffle, True, scale),
    }


def _render_io_tuning(elapsed) -> str:
    return "\n".join([
        "Ablation: I/O software tuning (16 disks)",
        f"select, 32 KB requests, depth 4 : {elapsed['small_requests']:7.2f}s",
        f"select, 256 KB requests, depth 1: {elapsed['shallow_queue']:7.2f}s",
        f"select, 256 KB requests, depth 4: {elapsed['tuned']:7.2f}s"
        "  (paper tuning)",
        f"SMP shuffle, interleaved groups : {elapsed['interleaved']:7.2f}s",
        f"SMP shuffle, split r/w groups   : {elapsed['split']:7.2f}s"
        "  (paper tuning)",
    ])


# ----------------------------------------------------------- mixed load
def _mixed(config, scale):
    return {result.task: result.elapsed
            for result in run_concurrent(config, ("select", "sort"), scale)}


def _mixed_workload(runner, scale):
    """32 disks: arch -> (select alone, sort alone, {task: elapsed} of
    the two running concurrently)."""
    table = {}
    for arch in ARCHITECTURES:
        select, sort = _cells(runner, [
            CellSpec(task, arch, MIXED_DISKS, scale=scale)
            for task in ("select", "sort")])
        table[arch] = (select, sort, runner.simulate(
            _mixed, config_for(arch, MIXED_DISKS), scale))
    return table


def _render_mixed_workload(table) -> str:
    lines = [f"Ablation: select + sort running concurrently "
             f"({MIXED_DISKS} disks)"]
    for arch, (select, sort, together) in table.items():
        lines.append(
            f"  {arch:8s} select {select:6.2f}s -> "
            f"{together['select']:6.2f}s ({together['select'] / select:4.2f}x)"
            f"   sort {sort:6.2f}s -> {together['sort']:6.2f}s "
            f"({together['sort'] / sort:4.2f}x)")
    return "\n".join(lines)


# ---------------------------------------------------------- NASD fabric
def _nasd_fabric(runner, scale):
    """Active Disks: (disks, task) -> (dual FC-AL, Ethernet) elapsed."""
    specs = [CellSpec(task, "active", disks, scale=scale)
             for disks in (16, 128)
             for task in ("sort", "groupby", "select", "aggregate")]
    return {(spec.num_disks, spec.task): (fc, runner.simulate(
        _elapsed, build_config(spec).with_ethernet(), spec.task, scale))
        for spec, fc in zip(specs, _cells(runner, specs))}


def _render_nasd_fabric(elapsed) -> str:
    return render_table(
        "Ablation: dual FC-AL vs switched-Ethernet (NASD-style) fabric",
        ("task@disks", "FC loop", "ethernet", "eth/FC"),
        [(f"{task}@{disks}", f"{fc:.2f}s", f"{eth:.2f}s", f"{eth / fc:.2f}x")
         for (disks, task), (fc, eth) in elapsed.items()])


# ----------------------------------------------------------------- skew
def _skewed(config, theta: float, scale: float) -> float:
    from ..workloads import build_program
    from ..workloads.skew import skewed_variant
    return _elapsed(config, "sort", scale, skewed_variant(
        build_program("sort", config, scale), theta))


def _skew(runner, scale):
    """Sort at 64 disks: arch -> elapsed at each Zipf theta."""
    uniform = _cells(runner, [CellSpec("sort", arch, SKEW_DISKS, scale=scale)
                              for arch in ARCHITECTURES])
    return {arch: [base] + [runner.simulate(
        _skewed, config_for(arch, SKEW_DISKS), theta, scale)
        for theta in SKEW_THETAS[1:]]
        for arch, base in zip(ARCHITECTURES, uniform)}


def _render_skew(table) -> str:
    from ..workloads.skew import imbalance_factor
    lines = [f"Ablation: Zipf key skew, sort, {SKEW_DISKS} disks "
             f"(hot-partition bound: "
             + ", ".join(f"theta={theta:g} -> "
                         f"{imbalance_factor(SKEW_DISKS, theta):.1f}x"
                         for theta in SKEW_THETAS) + ")"]
    for arch, values in table.items():
        cells = "  ".join(
            f"theta={theta:g}: {value:6.2f}s ({value / values[0]:4.2f}x)"
            for theta, value in zip(SKEW_THETAS, values))
        lines.append(f"  {arch:8s} {cells}")
    return "\n".join(lines)


# ---------------------------------------------------------- query suite
def _query(name: str, arch: str, scale: float) -> float:
    from ..workloads.queries import compile_plan
    from ..workloads.query_suite import QUERY_SUITE
    config = config_for(arch, QUERY_DISKS)
    return _elapsed(config, name, scale,
                    compile_plan(QUERY_SUITE[name], config, scale))


def _query_suite(runner, scale):
    """(scale, {query: {arch: elapsed}}) at 64 disks."""
    from ..workloads.query_suite import QUERY_SUITE
    return scale, {name: {arch: runner.simulate(_query, name, arch, scale)
                          for arch in ARCHITECTURES}
                   for name in QUERY_SUITE}


def _render_query_suite(result) -> str:
    scale, elapsed = result
    return render_table(
        f"Composite query suite, {QUERY_DISKS} disks "
        f"(normalized to Active Disks; scale={scale:g})",
        ("query", "active", "cluster", "smp"),
        [(name, f"{r['active']:.2f}s", f"{r['cluster'] / r['active']:.2f}",
          f"{r['smp'] / r['active']:.2f}") for name, r in elapsed.items()])


#: (file stem, run, render) of each artifact, in build order.
ABLATIONS = (
    ("ablation_evolution", _evolution, _render_evolution),
    ("ablation_fibreswitch", _fibreswitch, _render_fibreswitch),
    ("ablation_frontend", _frontend, _render_frontend),
    ("ablation_io_tuning", _io_tuning, _render_io_tuning),
    ("ablation_mixed_workload", _mixed_workload, _render_mixed_workload),
    ("ablation_nasd_fabric", _nasd_fabric, _render_nasd_fabric),
    ("ablation_skew", _skew, _render_skew),
    ("query_suite", _query_suite, _render_query_suite),
)
