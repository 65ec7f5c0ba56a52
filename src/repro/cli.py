"""Command-line interface: run tasks and regenerate the paper's results.

Examples::

    python -m repro list
    python -m repro run --arch active --disks 64 --task sort --scale 1/32
    python -m repro run --arch active --disks 64 --task sort --restricted
    python -m repro build --jobs 2
    python -m repro resume results/build.journal.jsonl
    python -m repro doctor
    python -m repro doctor --journal results/fig1.journal.jsonl
    python -m repro sweep fig1 --jobs 4 --retries 1 --scale 1/64
    python -m repro resume results/fig1.journal.jsonl
    python -m repro traffic --arch active --sessions 20000
    python -m repro traffic --arch all --policy fair-share --loads 0.5,2
    python -m repro traffic --smoke
    python -m repro audit --quick
    python -m repro serve --workers 2
    python -m repro submit fig1 --scale 1/64 --wait
    python -m repro status
    python -m repro chaos --quick --seed 7

``build`` writes every file the artifact registry
(``repro.experiments.ARTIFACTS``) declares — the paper's figures and
tables, the ablations and the query suite — into ``results/``,
simulating each distinct configuration once through the journaled
harness and the ablations' single-use knobs inline. An interrupted
build is finished by ``resume``, and a new one refuses to start over
its journal (see ``docs/HARNESS.md``).

``audit`` arms the runtime conservation-law auditors
(``docs/INVARIANTS.md``): a seeded batch of differential fuzz cells runs
each small simulation armed (instrumented kernel loop) and disarmed
(fast loop) and requires bit-identical results, then Figure 1 is
regenerated with every auditor armed and byte-compared to ``results/``.

``sweep`` runs a figure grid through the resilient harness: progress is
journaled, workers are process-isolated (``--jobs``), hung cells time
out (``--timeout``), failing cells retry then quarantine (``--retries``),
and a killed sweep picks up where it left off via ``resume`` (see
``docs/HARNESS.md``).

``serve`` / ``submit`` / ``status`` / ``worker`` are the distributed
sweep service: a coordinator with a persistent job queue dispatches
cells to heartbeating workers over a socket, reassigning the cells of
any worker that dies mid-run (see ``docs/SERVICE.md``).

``traffic`` drives an open-loop multi-tenant session stream (seeded
Poisson arrivals, Zipf tenant/task mix) at each architecture through a
bounded admission queue with a configurable shedding policy, and
renders latency (exact p50/p95/p99) against offered load — the
saturation curve. ``--smoke`` is the CI overload gate
(see ``docs/TRAFFIC.md``).

``chaos`` is the service's adversary: it replays a seeded schedule of
message drops, duplicates, delays, partitions and kills against a live
coordinator + workers and asserts the artifacts stay byte-identical to
an inline sweep with every cell applied exactly once
(see ``docs/CHAOS.md``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence

from .experiments import DEFAULT_SCALE, CellSpec, build_config, run_task
from .service.requests import FIGURES, write_figure
from .workloads import registered_tasks

__all__ = ["main", "parse_scale"]

#: Figure sweeps the harness commands know how to run and resume:
#: name -> default farm sizes (one source of truth with the service).
FIG_SWEEPS = {name: driver.default_sizes
              for name, driver in FIGURES.items()}


def parse_scale(text: str) -> float:
    """Parse '1/32', '0.25' or '1' into a scale fraction."""
    text = text.strip()
    if "/" in text:
        numerator, _, denominator = text.partition("/")
        value = float(numerator) / float(denominator)
    else:
        value = float(text)
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(
            f"scale must be in (0, 1], got {text!r}")
    return value


def _parse_sizes(text: str) -> List[int]:
    try:
        return [int(token) for token in text.split(",") if token]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list: {text!r}")


def _parse_interval(text: str) -> Optional[float]:
    """Parse a sampling interval; 0 disables periodic sampling."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad interval: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(
            f"sample interval must be >= 0, got {text!r}")
    return value or None


def _parse_loads(text: str) -> List[float]:
    try:
        loads = [float(token) for token in text.split(",") if token]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad load list: {text!r}")
    if not loads or any(load <= 0 for load in loads):
        raise argparse.ArgumentTypeError(
            f"offered loads must be positive: {text!r}")
    return loads


def _parse_tasks(text: str) -> List[str]:
    tasks = [token for token in text.split(",") if token]
    unknown = set(tasks) - set(registered_tasks())
    if unknown:
        raise argparse.ArgumentTypeError(
            f"unknown tasks: {', '.join(sorted(unknown))}")
    return tasks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=("Active Disks for Decision Support (HPCA 2000): "
                     "simulator and experiment harness"))
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list tasks and architectures")

    build = sub.add_parser(
        "build", help="build every committed file into results/ "
                      "(journaled, resumable, each distinct "
                      "configuration simulated once)")
    build.add_argument("--scale", type=parse_scale, default=DEFAULT_SCALE)
    build.add_argument("--out-dir", default="results",
                       help="directory for the artifacts, MANIFEST.json "
                            "and build.journal.jsonl (default results)")
    _add_harness_flags(build)

    scorecard = sub.add_parser(
        "scorecard", help="check every paper claim, print pass/fail")
    scorecard.add_argument("--scale", type=parse_scale, default=DEFAULT_SCALE)

    run = sub.add_parser("run", help="simulate one task on one machine")
    run.add_argument("--arch", choices=("active", "cluster", "smp"),
                     required=True)
    run.add_argument("--disks", type=int, default=64)
    run.add_argument("--task", choices=registered_tasks(), required=True)
    run.add_argument("--scale", type=parse_scale, default=DEFAULT_SCALE)
    run.add_argument("--memory-mb", type=int, default=None,
                     help="Active Disk memory per disk (default 32)")
    run.add_argument("--interconnect-mb", type=float, default=None,
                     help="I/O interconnect aggregate MB/s (default 200)")
    run.add_argument("--restricted", action="store_true",
                     help="route all Active Disk communication via the "
                          "front-end (Section 4.4)")
    run.add_argument("--fibreswitch", type=int, metavar="SEGMENTS",
                     default=None,
                     help="use a FibreSwitch fabric with this many loops")
    run.add_argument("--trace-out", metavar="FILE", default=None,
                     help="record telemetry and write a Chrome trace-event "
                          "JSON file (open in Perfetto or chrome://tracing)")
    run.add_argument("--metrics-out", metavar="FILE", default=None,
                     help="record telemetry and write a flat metrics JSON "
                          "file")
    run.add_argument("--sample-interval", type=_parse_interval,
                     metavar="SECONDS", default=0.25,
                     help="simulated seconds between telemetry probe "
                          "samples (default 0.25; 0 disables sampling)")
    run.add_argument("--fault-plan", metavar="FILE", default=None,
                     help="run in degraded mode: inject the faults "
                          "described in this JSON plan (see docs/FAULTS.md)")
    run.add_argument("--fault-seed", type=int, metavar="N", default=None,
                     help="override the fault plan's RNG seed")

    degraded = sub.add_parser(
        "degraded", help="clean vs. drive-failure run on every architecture")
    degraded.add_argument("--task", choices=registered_tasks(),
                          default="select")
    degraded.add_argument("--disks", type=int, default=8)
    degraded.add_argument("--failed-disk", type=int, default=1)
    degraded.add_argument("--fail-at", type=float, default=0.3,
                          metavar="FRACTION",
                          help="failure time as a fraction of the clean "
                               "run's elapsed time (default 0.3)")
    degraded.add_argument("--scale", type=parse_scale, default=DEFAULT_SCALE)
    degraded.add_argument("--seed", type=int, default=0)

    traffic = sub.add_parser(
        "traffic", help="open-loop multi-tenant traffic: offered-load "
                        "sweep with admission control, load shedding and "
                        "a saturation-curve report (see docs/TRAFFIC.md)")
    traffic.add_argument("--arch", choices=("active", "cluster", "smp",
                                            "all"),
                         default="active",
                         help="architecture to drive (default active)")
    traffic.add_argument("--disks", type=int, default=16,
                         help="farm size: disks / nodes / CPUs "
                              "(default 16)")
    traffic.add_argument("--sessions", type=int, default=2000, metavar="N",
                         help="open-loop sessions per load point "
                              "(default 2000); memory stays flat no "
                              "matter how large")
    traffic.add_argument("--seed", type=int, default=0,
                         help="arrival-stream seed (default 0); the same "
                              "seed replays the same byte-identical run")
    traffic.add_argument("--loads", type=_parse_loads, default=None,
                         metavar="X,Y,...",
                         help="offered loads as multiples of capacity "
                              "(default 0.5,0.9,1.5)")
    traffic.add_argument("--policy", choices=("reject-newest",
                                              "deadline-drop",
                                              "fair-share"),
                         default="reject-newest",
                         help="shedding policy at the admission queue "
                              "(default reject-newest)")
    traffic.add_argument("--queue-capacity", type=int, default=64,
                         metavar="N",
                         help="bounded admission queue depth (default 64)")
    traffic.add_argument("--tenants", type=int, default=4, metavar="N",
                         help="tenants sharing the machine (default 4)")
    traffic.add_argument("--tenant-theta", type=float, default=1.0,
                         metavar="T",
                         help="Zipf skew across tenants (default 1.0)")
    traffic.add_argument("--task-theta", type=float, default=0.5,
                         metavar="T",
                         help="Zipf skew across tasks (default 0.5)")
    traffic.add_argument("--tasks", type=_parse_tasks, default=None,
                         help="task subset for the session mix "
                              "(default: all eight)")
    traffic.add_argument("--scale", type=parse_scale, default="1/128",
                         help="dataset scale per session (default 1/128)")
    traffic.add_argument("--deadline-factor", type=float, default=8.0,
                         metavar="F",
                         help="deadline = arrival + F x service demand; "
                              "0 disables deadlines so overload sheds "
                              "instead of missing (default 8)")
    traffic.add_argument("--journal", metavar="FILE", default=None,
                         help="journal the grid through the resilient "
                              "harness (resumable with 'repro resume')")
    traffic.add_argument("--out-dir", default="results",
                         help="directory for traffic.txt/traffic.csv and "
                              "MANIFEST.json (default results)")
    traffic.add_argument("--smoke", action="store_true",
                         help="CI gate: light + saturating load on every "
                              "architecture with deadlines off; asserts "
                              "zero sheds when light, nonzero sheds with "
                              "bounded queues and flat memory when "
                              "saturated")
    _add_harness_flags(traffic)

    sweep = sub.add_parser(
        "sweep", help="run a figure grid through the resilient harness "
                      "(journaled, resumable, process-isolated)")
    sweep.add_argument("figure", choices=sorted(FIG_SWEEPS))
    sweep.add_argument("--sizes", type=_parse_sizes, default=None)
    sweep.add_argument("--tasks", type=_parse_tasks, default=None,
                       help="task subset (ignored by fig3)")
    sweep.add_argument("--scale", type=parse_scale, default=DEFAULT_SCALE)
    sweep.add_argument("--journal", metavar="FILE", default=None,
                       help="journal path (default "
                            "<out-dir>/<figure>.journal.jsonl)")
    sweep.add_argument("--out-dir", default="results",
                       help="directory for .txt/.csv artifacts and "
                            "MANIFEST.json (default results)")
    _add_harness_flags(sweep)

    resume = sub.add_parser(
        "resume", help="resume an interrupted sweep from its journal")
    resume.add_argument("journal", help="the sweep's .journal.jsonl file")
    resume.add_argument("--out-dir", default=None,
                        help="rewrite figure artifacts here on completion "
                             "(default: the journal's directory)")
    _add_harness_flags(resume)

    serve = sub.add_parser(
        "serve", help="run the sweep service: coordinator plus N local "
                      "workers (see docs/SERVICE.md)")
    serve.add_argument("--socket", metavar="ADDR", default=None,
                       help="unix socket path or host:port to listen on "
                            "(default <state-dir>/coordinator.sock)")
    serve.add_argument("--state-dir", default=None, metavar="DIR",
                       help="queue + job journals directory "
                            "(default results/service)")
    serve.add_argument("--out-dir", default="results",
                       help="artifact directory for finished jobs "
                            "(default results)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="local worker processes to spawn (default 2; "
                            "0 = coordinator only, attach with "
                            "'repro worker')")
    serve.add_argument("--retries", type=int, default=1, metavar="K",
                       help="attempts before a cell is quarantined "
                            "(default 1); lost workers consume attempts")
    serve.add_argument("--cell-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="per-cell timeout on each worker (implies "
                            "subprocess isolation; default none)")
    serve.add_argument("--heartbeat", type=float, default=0.5,
                       metavar="SECONDS",
                       help="worker heartbeat interval (default 0.5; "
                            "missing ~6 in a row loses the worker)")
    serve.add_argument("--exit-after-jobs", type=int, default=None,
                       metavar="N",
                       help="exit once N jobs reach done/failed "
                            "(for scripts and CI; default: serve forever)")
    serve.add_argument("--max-pending", type=int, default=None,
                       metavar="N",
                       help="admission control: reject submits once N "
                            "jobs are open (default: unbounded)")
    serve.add_argument("--assign-timeout", type=float, default=None,
                       metavar="SECONDS",
                       help="reassign a cell stuck in flight this long "
                            "(default: wait forever; set it on lossy "
                            "links)")

    submit = sub.add_parser(
        "submit", help="enqueue a figure sweep on a running service")
    submit.add_argument("figure", choices=sorted(FIG_SWEEPS))
    submit.add_argument("--sizes", type=_parse_sizes, default=None)
    submit.add_argument("--tasks", type=_parse_tasks, default=None,
                        help="task subset (ignored by fig3)")
    submit.add_argument("--scale", type=parse_scale, default=DEFAULT_SCALE)
    submit.add_argument("--socket", metavar="ADDR", default=None,
                        help="coordinator address (default "
                             "results/service/coordinator.sock)")
    submit.add_argument("--wait", action="store_true",
                        help="poll until the job is done/failed and exit "
                             "nonzero on failure")
    submit.add_argument("--wait-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="give up waiting after this long")

    status = sub.add_parser(
        "status", help="show a running service's queue, workers and "
                       "counters")
    status.add_argument("--socket", metavar="ADDR", default=None,
                        help="coordinator address (default "
                             "results/service/coordinator.sock)")

    worker = sub.add_parser(
        "worker", help="attach one extra worker to a running service")
    worker.add_argument("--socket", metavar="ADDR", default=None,
                        help="coordinator address (default "
                             "results/service/coordinator.sock)")
    worker.add_argument("--id", dest="worker_id", default=None,
                        help="worker name in journals and status output "
                             "(default pid<N>)")
    worker.add_argument("--heartbeat", type=float, default=0.5,
                        metavar="SECONDS")
    worker.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="per-cell timeout (implies subprocess "
                             "isolation; default none)")

    chaos = sub.add_parser(
        "chaos", help="run the service chaos gauntlet: seeded message "
                      "drops/duplicates/delays/partitions against a live "
                      "coordinator + workers, asserting artifacts stay "
                      "byte-identical to an inline sweep "
                      "(see docs/CHAOS.md)")
    chaos.add_argument("--quick", action="store_true",
                       help="CI smoke setting: 3-cell fig1 subset")
    chaos.add_argument("--seed", type=int, default=0, metavar="S",
                       help="chaos schedule seed (default 0); the same "
                            "seed replays the same schedule")
    chaos.add_argument("--plan", metavar="FILE", default=None,
                       help="JSON chaos plan file (default: the stock "
                            "drop+duplicate+delay+partition plan)")
    chaos.add_argument("--workers", type=int, default=2, metavar="N",
                       help="socket worker processes (default 2)")
    chaos.add_argument("--state-dir", default=None, metavar="DIR",
                       help="scratch dir for socket, journals and "
                            "artifacts (default results/chaos)")
    chaos.add_argument("--no-kill", action="store_true",
                       help="skip the seeded mid-job worker SIGKILL")

    doctor = sub.add_parser(
        "doctor", help="check the environment and smoke-simulate one "
                       "second on each architecture")
    doctor.add_argument("--journal", metavar="FILE", default=None,
                        help="also summarize this sweep journal: cell "
                             "counts plus any quarantined invariant "
                             "violations with their ledgers")
    doctor.add_argument("--verify-artifacts", nargs="?", const="results",
                        default=None, metavar="DIR",
                        help="re-hash every artifact in DIR (default "
                             "results/) against its MANIFEST.json and "
                             "report per-file drift")

    crashtest = sub.add_parser(
        "crashtest", help="run the durability gauntlet: crash the "
                          "persistence stack at every write/fsync/"
                          "rename boundary and assert recovery "
                          "(see docs/DURABILITY.md)")
    crashtest.add_argument("--points", type=int, default=None,
                           metavar="N",
                           help="test at most N evenly-sampled crash "
                                "points per workload (default: every "
                                "enumerated boundary)")
    crashtest.add_argument("--seed", type=int, default=0, metavar="S",
                           help="fault-plan seed (default 0)")
    crashtest.add_argument("--quick", action="store_true",
                           help="CI smoke setting: smaller workloads, "
                                "fewer boundaries")
    crashtest.add_argument("--out-dir", default="results", metavar="DIR",
                           help="where crashtest-report.json and any "
                                "failing crash sandboxes land "
                                "(default results/)")

    audit = sub.add_parser(
        "audit", help="arm the conservation-law auditors: differential "
                      "fuzz of the kernel loops plus an armed Figure 1 "
                      "identity check (see docs/INVARIANTS.md)")
    audit.add_argument("--cells", type=int, default=None, metavar="N",
                       help="differential fuzz cells (default 25; "
                            "10 with --quick)")
    audit.add_argument("--seed", type=int, default=0, metavar="S",
                       help="fuzz batch seed (default 0)")
    audit.add_argument("--quick", action="store_true",
                       help="CI smoke setting: fewer cells, 16-disk "
                            "identity column")
    audit.add_argument("--journal", metavar="FILE", default=None,
                       help="journal every fuzz cell (and any violation "
                            "report) to this JSONL file")
    audit.add_argument("--out-dir", default=None, metavar="DIR",
                       help="write audit-violations.json here when "
                            "anything fails")
    audit.add_argument("--no-identity", action="store_true",
                       help="skip the armed fig1 identity check "
                            "(fuzz-only run)")
    return parser


def _add_harness_flags(cmd) -> None:
    cmd.add_argument("--jobs", type=int, default=1, metavar="N",
                     help="worker processes; > 1 runs cells in a pool of "
                          "N forked workers, each reused until an attempt "
                          "fails (default 1)")
    cmd.add_argument("--timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="per-cell wall-clock timeout (implies process "
                          "isolation; default none)")
    cmd.add_argument("--retries", type=int, default=1, metavar="K",
                     help="retry attempts before a cell is quarantined "
                          "(default 1)")
    cmd.add_argument("--memory-budget", type=int, default=None,
                     metavar="MB",
                     help="per-cell address-space budget in MB (implies "
                          "process isolation, one cell per worker); a "
                          "cell that busts it is quarantined as 'oom', "
                          "not retried")


def _harness(args, journal: Optional[str], meta=None):
    """A ``SweepRunner`` configured by the harness flags."""
    from .experiments import SweepRunner
    return SweepRunner(journal, jobs=args.jobs, timeout=args.timeout,
                       retries=args.retries, meta=meta,
                       memory_budget_mb=args.memory_budget)


def _harness_line(runner) -> str:
    counters = ", ".join(f"{name}={value}"
                         for name, value in runner.counters.items() if value)
    return f"harness: {counters or 'nothing to do'}"


def _command_list(_args) -> str:
    lines = ["tasks:"]
    lines.extend(f"  {task}" for task in registered_tasks())
    lines.append("architectures:")
    lines.extend(f"  {arch}" for arch in ("active", "cluster", "smp"))
    return "\n".join(lines)


def _command_run(args) -> str:
    scale = args.scale
    config = build_config(CellSpec(
        task=args.task, arch=args.arch, num_disks=args.disks, scale=scale,
        memory_mb=args.memory_mb, interconnect_mb=args.interconnect_mb,
        restricted=args.restricted,
        fibreswitch_segments=args.fibreswitch))
    telemetry = None
    if args.trace_out or args.metrics_out:
        from .telemetry import Telemetry
        telemetry = Telemetry(sample_interval=args.sample_interval)
    fault_plan = None
    if args.fault_plan:
        from .faults import FaultPlan
        fault_plan = FaultPlan.from_file(args.fault_plan)
    result = run_task(config, args.task, scale, telemetry=telemetry,
                      fault_plan=fault_plan, fault_seed=args.fault_seed)
    lines = [
        f"{args.task} on {args.arch} / {args.disks} disks "
        f"(scale {scale:g})",
        f"elapsed: {result.elapsed:.3f} simulated seconds",
    ]
    for phase in result.phases:
        parts = ", ".join(f"{k}={v:.0%}"
                          for k, v in sorted(phase.fractions().items()))
        lines.append(f"  phase {phase.name}: {phase.elapsed:.3f}s ({parts})")
    for key, value in sorted(result.extras.items()):
        lines.append(f"  {key}: {value:,.0f}"
                     if value >= 100 else f"  {key}: {value:.3f}")
    if telemetry is not None:
        from .telemetry import write_chrome_trace, write_metrics_json
        events = len(telemetry.spans)
        if args.trace_out:
            write_chrome_trace(telemetry, args.trace_out)
            lines.append(f"trace: {args.trace_out} ({events} events; "
                         f"open in https://ui.perfetto.dev)")
        if args.metrics_out:
            write_metrics_json(telemetry, args.metrics_out)
            lines.append(f"metrics: {args.metrics_out} "
                         f"({len(telemetry.registry)} metrics)")
    return "\n".join(lines)


def _command_degraded(args) -> str:
    from .experiments import run_degraded_sweep
    result = run_degraded_sweep(
        task=args.task, num_disks=args.disks,
        failed_disk=args.failed_disk, fail_fraction=args.fail_at,
        scale=args.scale, seed=args.seed)
    lines = [
        f"{args.task} with disk.{args.failed_disk} failing at "
        f"{args.fail_at:.0%} of the clean run ({args.disks} disks)",
    ]
    for cell in result.cells:
        lines.append(
            f"  {cell.arch:8s} clean={cell.baseline.elapsed:8.3f}s  "
            f"degraded={cell.degraded.elapsed:8.3f}s  "
            f"inflation={cell.inflation:.3f}x")
        for key, value in sorted(cell.counters.items()):
            lines.append(f"           {key}: {value:,.0f}")
    return "\n".join(lines)


def _traffic_kwargs(args) -> Dict:
    """The ``run_traffic_figure`` keyword arguments the flags select.

    They are JSON values, so a journal's metadata can carry them for
    ``repro resume``.
    """
    from .experiments import ARCHITECTURES
    from .traffic import DEFAULT_LOADS

    return {
        "archs": list(ARCHITECTURES) if args.arch == "all" else [args.arch],
        "sizes": [args.disks],
        "loads": list(args.loads or DEFAULT_LOADS),
        "sessions": args.sessions, "seed": args.seed,
        "policy": args.policy, "queue_capacity": args.queue_capacity,
        "tenants": args.tenants, "tenant_theta": args.tenant_theta,
        "task_theta": args.task_theta, "tasks": args.tasks,
        "scale": args.scale, "deadline_factor": args.deadline_factor,
    }


def _run_traffic(kwargs: Dict, journal: Optional[str], out_dir: str,
                 args) -> str:
    """Run the traffic grid, journaled when ``journal`` is set, and write
    ``traffic.txt``, ``traffic.csv`` and ``MANIFEST.json``."""
    from .traffic import run_traffic_figure

    runner = None
    if journal is not None:
        runner = _harness(args, journal,
                          {"traffic": kwargs, "out_dir": out_dir})
    figure = run_traffic_figure(runner=runner, **kwargs)
    os.makedirs(out_dir, exist_ok=True)
    lines = [write_figure("traffic", figure, out_dir)]
    if runner is not None:
        lines += [_harness_line(runner), f"journal: {journal}"]
    lines.append(f"artifacts: {out_dir}/traffic.txt, "
                 f"{out_dir}/traffic.csv "
                 f"(checksums in {out_dir}/MANIFEST.json)")
    return "\n".join(lines)


def _command_traffic(args) -> int:
    """Offered-load sweep -> saturation-curve artifacts (or --smoke)."""
    if args.smoke:
        return _traffic_smoke(args)
    journal = args.journal
    if journal is None and (args.jobs > 1 or args.timeout is not None
                            or args.memory_budget is not None):
        os.makedirs(args.out_dir, exist_ok=True)
        journal = os.path.join(args.out_dir, "traffic.journal.jsonl")
    print(_run_traffic(_traffic_kwargs(args), journal, args.out_dir, args))
    return 0


def _traffic_smoke(args) -> int:
    """The CI overload gate: every architecture, deadlines off.

    With deadlines disabled the admission policy is the only escape
    valve, so the assertions are sharp: a light stream must shed
    nothing, a saturating one must shed without the queue ever busting
    its bound, and the Python-heap peak must stay flat in the session
    count (both flatness runs exceed the quantile reservoir cap, so
    any growth is a real leak).
    """
    import tracemalloc

    from .experiments import ARCHITECTURES
    from .experiments.artifacts import atomic_write_text
    from .traffic import TrafficConfig, run_traffic

    def cell(arch: str, load: float, sessions: int) -> "TrafficConfig":
        return TrafficConfig(
            arch=arch, num_disks=args.disks, sessions=sessions,
            seed=args.seed, load=load, policy=args.policy,
            queue_capacity=args.queue_capacity, tenants=args.tenants,
            tenant_theta=args.tenant_theta, task_theta=args.task_theta,
            tasks=tuple(args.tasks) if args.tasks else (),
            scale=args.scale, deadline_factor=0.0)

    failures = []
    lines = ["traffic smoke: open-loop overload gate (deadlines off)"]
    for arch in ARCHITECTURES:
        light = run_traffic(cell(arch, 0.4, 400))
        heavy = run_traffic(cell(arch, 1.6, 800))
        for name, ok in (
                ("light load sheds nothing", light.shed == 0),
                ("light load accounted", light.accounted),
                ("saturating load sheds", heavy.shed > 0),
                ("saturating load accounted", heavy.accounted),
                ("queue stays bounded", heavy.peak_queue_depth
                 <= heavy.config.queue_capacity)):
            if not ok:
                failures.append(f"{arch}: {name}")
        sojourn = heavy.sojourn
        lines.append(
            f"  {arch:8s} light: shed {light.shed}/{light.arrivals}"
            f"  saturated: shed {heavy.shed}/{heavy.arrivals}"
            f" peak queue {heavy.peak_queue_depth}"
            f"/{heavy.config.queue_capacity}"
            f" p50 {sojourn['p50']:.3f}s p95 {sojourn['p95']:.3f}s"
            f" p99 {sojourn['p99']:.3f}s")

    # Both flatness points lie past the point where the quantile
    # reservoirs saturate (4096 samples), so the only growth left to
    # measure would be a genuine per-session leak.
    sizes = (8000, 16000)
    peaks = []
    for sessions in sizes:
        tracemalloc.start()
        run_traffic(cell("active", 1.6, sessions))
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    ratio = peaks[1] / peaks[0] if peaks[0] else float("inf")
    lines.append(f"  memory: heap peak {peaks[0] / 1024:.0f} KiB at "
                 f"{sizes[0]} sessions, {peaks[1] / 1024:.0f} KiB at "
                 f"{sizes[1]} (ratio {ratio:.3f})")
    if ratio > 1.10:
        failures.append(
            f"heap peak grows with session count (x{ratio:.3f})")

    lines.append("traffic smoke: "
                 + ("ok" if not failures
                    else "FAIL: " + "; ".join(failures)))
    report = "\n".join(lines)
    print(report)
    os.makedirs(args.out_dir, exist_ok=True)
    atomic_write_text(os.path.join(args.out_dir, "traffic-smoke.txt"),
                      report + "\n")
    return 1 if failures else 0


def _run_figure_sweep(figure: str, sizes, tasks, scale: float,
                      journal: Optional[str], out_dir: str, args) -> str:
    """Run one figure through the harness and write crash-safe artifacts."""
    from .service.requests import SweepRequest

    request = SweepRequest(figure=figure,
                           sizes=tuple(sizes) if sizes else None,
                           tasks=tuple(tasks) if tasks else None,
                           scale=scale, out_dir=out_dir)
    os.makedirs(out_dir, exist_ok=True)
    if journal is None:
        journal = os.path.join(out_dir, f"{figure}.journal.jsonl")
    runner = _harness(args, journal, request.meta())
    text = request.run_with(runner)
    return (f"{text}\n\n"
            f"{_harness_line(runner)}\n"
            f"journal: {journal}\n"
            f"artifacts: {out_dir}/{figure}.txt, {out_dir}/{figure}.csv "
            f"(checksums in {out_dir}/MANIFEST.json)")


def _command_sweep(args) -> str:
    return _run_figure_sweep(args.figure, args.sizes, args.tasks, args.scale,
                             args.journal, args.out_dir, args)


def _run_build(names, scale: float, journal: str, out_dir: str,
               args) -> str:
    """Build artifacts through the journaled harness; the journal goes
    once every file and MANIFEST.json is written."""
    from .experiments import SweepInterrupted, build_artifacts

    runner = _harness(args, journal, {"artifacts": names, "scale": scale,
                                      "out_dir": out_dir})
    try:
        build = build_artifacts(out_dir, names, scale=scale, runner=runner)
    except KeyboardInterrupt as exc:    # during the inline simulations
        print(f"build interrupted; resume with: repro resume {journal}",
              file=sys.stderr)
        raise SweepInterrupted("build interrupted after its journaled "
                               "cells", journal_path=journal) from exc
    os.unlink(journal)
    return "\n".join([f"wrote {path}" for path in build.files] + [
        f"cells: {build.declared} declared, {build.distinct} distinct "
        f"configurations, {build.inline} inline simulations",
        _harness_line(runner)])


def _command_build(args) -> str:
    from .experiments import ARTIFACTS, BUILD_JOURNAL

    journal = os.path.join(args.out_dir, BUILD_JOURNAL)
    if os.path.exists(journal):
        raise ValueError(f"{journal} exists: an earlier build did not "
                         f"finish; run 'repro resume {journal}' or delete it")
    return _run_build(list(ARTIFACTS), args.scale, journal, args.out_dir,
                      args)


def _command_resume(args) -> str:
    from .experiments import SweepJournal, resume_sweep

    journal = SweepJournal.load(args.journal)
    meta = journal.meta
    out_dir = args.out_dir or meta.get("out_dir") or (
        os.path.dirname(args.journal) or ".")
    if "artifacts" in meta:
        return _run_build(meta["artifacts"], meta["scale"], args.journal,
                          out_dir, args)
    if "traffic" in meta:
        return _run_traffic(meta["traffic"], args.journal, out_dir, args)
    if meta.get("figure") in FIG_SWEEPS:
        return _run_figure_sweep(
            meta["figure"], meta.get("sizes"), meta.get("tasks"),
            meta.get("scale", DEFAULT_SCALE), args.journal, out_dir, args)
    # A journal without driver metadata: just complete its cells.
    _, results = resume_sweep(args.journal, jobs=args.jobs,
                              timeout=args.timeout, retries=args.retries,
                              memory_budget_mb=args.memory_budget)
    lines = [f"resumed {args.journal}: {len(results)} cell(s) complete"]
    for key in sorted(results):
        lines.append(f"  {key}: {results[key].elapsed:.3f}s")
    return "\n".join(lines)


def _service_address(args) -> str:
    from .service.server import DEFAULT_STATE_DIR, default_socket
    if getattr(args, "socket", None):
        return args.socket
    state_dir = getattr(args, "state_dir", None) or DEFAULT_STATE_DIR
    return default_socket(state_dir)


def _command_serve(args) -> int:
    from .service.server import DEFAULT_STATE_DIR, serve
    state_dir = args.state_dir or DEFAULT_STATE_DIR
    return serve(args.socket,
                 state_dir=state_dir,
                 out_dir=args.out_dir,
                 workers=args.workers,
                 retries=args.retries,
                 heartbeat_interval=args.heartbeat,
                 assign_timeout=args.assign_timeout,
                 max_pending=args.max_pending,
                 cell_timeout=args.cell_timeout,
                 exit_after_jobs=args.exit_after_jobs)


def _command_submit(args) -> int:
    from .service.server import submit_request
    request = {"figure": args.figure, "scale": args.scale}
    if args.sizes:
        request["sizes"] = list(args.sizes)
    if args.tasks:
        request["tasks"] = list(args.tasks)
    try:
        outcome = submit_request(_service_address(args), request,
                                 wait=args.wait,
                                 wait_timeout=args.wait_timeout,
                                 log=print)
    except (OSError, TimeoutError, ValueError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 1
    if not args.wait:
        return 0
    print(f"{outcome['job']}: {outcome['status']}"
          + (f" ({outcome['error']})" if outcome.get("error") else ""))
    return 0 if outcome["status"] == "done" else 1


def _command_status(args) -> int:
    from .service.server import fetch_status, render_status
    address = _service_address(args)
    try:
        payload = fetch_status(address)
    except (OSError, TimeoutError, ValueError) as exc:
        print(f"no service at {address}: {exc}", file=sys.stderr)
        return 1
    print(render_status(payload))
    return 0


def _command_worker(args) -> int:
    from .service.worker import worker_main
    try:
        return worker_main(_service_address(args), args.worker_id,
                           heartbeat_interval=args.heartbeat,
                           cell_timeout=args.cell_timeout)
    except KeyboardInterrupt:
        return 130


def _command_chaos(args) -> int:
    from .service.chaos import ChaosPlan
    from .service.gauntlet import render_report, run_gauntlet
    plan = None
    if args.plan:
        try:
            plan = ChaosPlan.from_file(args.plan)
        except (OSError, ValueError) as exc:
            print(f"chaos: bad plan file: {exc}", file=sys.stderr)
            return 2
    state_dir = args.state_dir or os.path.join("results", "chaos")
    try:
        report = run_gauntlet(state_dir,
                              plan=plan,
                              seed=args.seed,
                              workers=args.workers,
                              quick=args.quick,
                              kill_worker=not args.no_kill,
                              log=print)
    except (OSError, TimeoutError, ValueError) as exc:
        print(f"chaos gauntlet failed to run: {exc}", file=sys.stderr)
        return 1
    print(render_report(report))
    return 0 if report["ok"] else 1


def _command_crashtest(args) -> int:
    """Durability gauntlet (crash-point enumeration + fault plans)."""
    from .durability.gauntlet import render_crashtest, run_crashtest
    try:
        report = run_crashtest(out_dir=args.out_dir,
                               seed=args.seed,
                               quick=args.quick,
                               points=args.points,
                               log=print)
    except (OSError, ValueError) as exc:
        print(f"crashtest failed to run: {exc}", file=sys.stderr)
        return 1
    print(render_crashtest(report))
    print(f"report: {os.path.join(args.out_dir, 'crashtest-report.json')}")
    return 0 if report["ok"] else 1


def _command_doctor(args) -> int:
    """Environment + smoke checks; returns the exit code."""
    import platform
    import time

    from .experiments import ARCHITECTURES, CellSpec, run_cell

    checks = []

    version_ok = sys.version_info >= (3, 10)
    checks.append(("python >= 3.10", version_ok,
                   platform.python_version()))

    try:
        from . import __version__
        checks.append(("repro importable", True, f"v{__version__}"))
    except Exception as exc:  # pragma: no cover - import already worked
        checks.append(("repro importable", False, repr(exc)))

    results_dir = "results"
    try:
        from .experiments.artifacts import atomic_write_text
        os.makedirs(results_dir, exist_ok=True)
        probe = os.path.join(results_dir, ".doctor-probe")
        atomic_write_text(probe, "ok\n")
        os.unlink(probe)
        checks.append((f"{results_dir}/ writable (atomic)", True, ""))
    except OSError as exc:
        checks.append((f"{results_dir}/ writable (atomic)", False,
                       str(exc)))

    import multiprocessing
    methods = multiprocessing.get_all_start_methods()
    checks.append(("process isolation available", bool(methods),
                   ",".join(methods)))

    for arch in ARCHITECTURES:
        spec = CellSpec(task="select", arch=arch, num_disks=8,
                        scale=1 / 256)
        began = time.perf_counter()
        try:
            result = run_cell(spec)
            wall = time.perf_counter() - began
            checks.append((f"smoke: select on {arch}",
                           result.elapsed > 0,
                           f"{result.elapsed:.2f} simulated s in "
                           f"{wall:.2f}s wall"))
        except Exception as exc:
            checks.append((f"smoke: select on {arch}", False, repr(exc)))

    try:
        from .traffic import TrafficConfig, run_traffic
        traffic = run_traffic(TrafficConfig(
            arch="active", num_disks=8, sessions=200, load=1.2,
            queue_capacity=16, scale=1 / 256))
        sojourn = traffic.sojourn
        checks.append(("smoke: open-loop traffic (exact quantiles)",
                       traffic.accounted,
                       f"p50 {sojourn['p50']:.3f}s "
                       f"p95 {sojourn['p95']:.3f}s "
                       f"p99 {sojourn['p99']:.3f}s over "
                       f"{traffic.arrivals} sessions"))
    except Exception as exc:
        checks.append(("smoke: open-loop traffic (exact quantiles)",
                       False, repr(exc)))

    violated = {}
    service_lines = []
    if getattr(args, "journal", None):
        from .experiments import SweepJournal
        try:
            journal = SweepJournal.load(args.journal)
        except (OSError, ValueError) as exc:
            checks.append((f"journal {args.journal}", False, str(exc)))
        else:
            violated = journal.violated()
            oom_cells = journal.oom_cells()
            counts = journal.counts()
            detail = ", ".join(f"{value} {status}"
                               for status, value in counts.items()
                               if value) or "empty"
            if violated:
                detail += f"; {len(violated)} invariant violation(s)"
            if oom_cells:
                detail += (f"; {len(oom_cells)} cell(s) over their "
                           f"memory budget")
            worker_cells = journal.worker_cells()
            if worker_cells or journal.service_events:
                # A service journal: attribute the work and the losses.
                detail += (f"; service run ({journal.reassignments()} "
                           f"reassignment(s), {journal.heartbeat_losses()} "
                           f"heartbeat loss(es))")
                hardening = [(journal.duplicates_dropped(),
                              "duplicate(s) dropped"),
                             (journal.epoch_fences(), "epoch fence(s)"),
                             (journal.rejected_submits(),
                              "rejected submit(s)"),
                             (journal.reconnects(), "reconnect(s)")]
                extras = ", ".join(f"{count} {label}"
                                   for count, label in hardening if count)
                if extras:
                    detail += f"; hardening: {extras}"
                for worker_id in sorted(worker_cells):
                    service_lines.append(f"  worker {worker_id}: "
                                         f"{worker_cells[worker_id]} "
                                         f"cell(s) done")
                for event in journal.service_events:
                    name = event.get("event", "?")
                    if name == "reassign":
                        service_lines.append(
                            f"  reassigned {event.get('key', '?')} from "
                            f"{event.get('worker', '?')} "
                            f"(attempt {event.get('attempt', '?')})")
                    elif name == "epoch_fence":
                        service_lines.append(
                            f"  fenced stale result for "
                            f"{event.get('key', '?')} from "
                            f"{event.get('worker', '?')} (epoch "
                            f"{event.get('stale_epoch', '?')}, current "
                            f"{event.get('epoch', '?')})")
                    elif name == "duplicate_dropped":
                        service_lines.append(
                            f"  dropped duplicate result for "
                            f"{event.get('key', '?')} (attempt "
                            f"{event.get('attempt', '?')}) from "
                            f"{event.get('worker', '?')}")
                    elif name == "submit_rejected":
                        service_lines.append(
                            f"  rejected a submit "
                            f"({event.get('reason', '?')})")
                    elif name == "worker_reconnect":
                        service_lines.append(
                            f"  worker {event.get('worker', '?')} "
                            f"reconnected (epoch {event.get('epoch', '?')})")
                    elif name == "assign_timeout":
                        service_lines.append(
                            f"  assignment of {event.get('key', '?')} to "
                            f"{event.get('worker', '?')} timed out "
                            f"(attempt {event.get('attempt', '?')})")
                    else:
                        service_lines.append(
                            f"  {name}: {event.get('worker', '?')}"
                            + (f" ({event['reason']})"
                               if event.get("reason") else ""))
            for key, cell in sorted(oom_cells.items()):
                service_lines.append(f"  oom: {key}: {cell.error}")
            checks.append((f"journal {args.journal}",
                           not violated and not oom_cells, detail))

    drift_lines = []
    if getattr(args, "verify_artifacts", None):
        from .experiments.artifacts import MANIFEST_NAME, manifest_report
        directory = args.verify_artifacts
        try:
            report = manifest_report(directory)
        except (OSError, ValueError) as exc:
            checks.append((f"artifacts {directory}", False, str(exc)))
        else:
            if report is None:
                checks.append((f"artifacts {directory}", False,
                               f"no {MANIFEST_NAME}"))
            else:
                drifted = {name: status
                           for name, status in report.items()
                           if status != "ok"}
                detail = (f"{len(report) - len(drifted)}/{len(report)} "
                          f"file(s) match their checksums")
                checks.append((f"artifacts {directory}", not drifted,
                               detail))
                for name, status in sorted(drifted.items()):
                    drift_lines.append(f"  drift: {name}: {status}")

    width = max(len(name) for name, _, _ in checks)
    for name, ok, detail in checks:
        status = "ok" if ok else "FAIL"
        line = f"  {name:<{width}}  {status}"
        print(f"{line}  {detail}" if detail else line)
    for line in service_lines:
        print(line)
    for line in drift_lines:
        print(line)
    for key, cell in sorted(violated.items()):
        report = cell.violation
        print(f"  violation in {key}: {report['component']}: "
              f"{report['invariant']} at t={report['sim_time']:.6f}s")
        print(f"    expected {report['expected']!r}, "
              f"observed {report['observed']!r}"
              + (f" ({report['detail']})" if report.get("detail") else ""))
    failed = [name for name, ok, _ in checks if not ok]
    print(f"doctor: {len(checks) - len(failed)}/{len(checks)} checks "
          f"passed" + (f"; failing: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def _command_audit(args) -> int:
    """Differential fuzz + armed fig1 identity; returns the exit code."""
    import json
    import time

    from .experiments import IdentityDrift, fig1_identity_check
    from .invariants import InvariantViolation, armed
    from .invariants.fuzz import run_fuzz

    count = args.cells if args.cells is not None else (
        10 if args.quick else 25)
    began = time.perf_counter()
    report = run_fuzz(count=count, seed=args.seed,
                      journal_path=args.journal)
    wall = time.perf_counter() - began
    print(f"{report.summary()} in {wall:.1f}s wall")
    for outcome in report.failures:
        print(f"  FAIL {outcome.spec.key} [{outcome.status}]: "
              f"{outcome.error}")
    exit_code = 0 if report.ok else 1

    identity_error = None
    if not args.no_identity:
        try:
            with armed():
                identity = fig1_identity_check(quick=args.quick)
        except (IdentityDrift, InvariantViolation) as exc:
            identity_error = f"{type(exc).__name__}: {exc}"
            print(f"armed fig1 identity FAILED: {identity_error}",
                  file=sys.stderr)
            exit_code = 1
        else:
            print(f"armed fig1 identity: ok ({identity['cells']} cells "
                  f"regenerated byte-identically with every auditor "
                  f"armed, {identity['wall_s']:.1f}s wall)")

    if args.out_dir and exit_code:
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, "audit-violations.json")
        payload = {
            "seed": args.seed,
            "cells": count,
            "failures": [
                {"cell": outcome.spec.key, "status": outcome.status,
                 "violation": outcome.violation, "diff": outcome.diff,
                 "error": outcome.error}
                for outcome in report.failures
            ],
            "identity_error": identity_error,
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"violation reports: {path}", file=sys.stderr)
    if args.journal:
        print(f"journal: {args.journal}")
    return exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        print(_command_list(args))
        return 0
    if args.command == "run":
        try:
            print(_command_run(args))
        except ValueError as exc:   # a bad value, variant or fault plan
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.command == "degraded":
        print(_command_degraded(args))
        return 0
    if args.command == "doctor":
        return _command_doctor(args)
    if args.command == "traffic":
        from .experiments import SweepInterrupted
        from .experiments.workers import check_pool_options
        try:
            check_pool_options(args.jobs, args.timeout, args.memory_budget)
        except ValueError as exc:   # a rejected harness flag
            print(f"error: {exc}", file=sys.stderr)
            return 1
        try:
            return _command_traffic(args)
        except SweepInterrupted as exc:
            print(exc, file=sys.stderr)
            return 130
    if args.command == "serve":
        return _command_serve(args)
    if args.command == "submit":
        return _command_submit(args)
    if args.command == "status":
        return _command_status(args)
    if args.command == "worker":
        return _command_worker(args)
    if args.command == "chaos":
        return _command_chaos(args)
    if args.command == "crashtest":
        return _command_crashtest(args)
    if args.command == "audit":
        return _command_audit(args)
    if args.command in ("build", "sweep", "resume"):
        from .experiments import SweepInterrupted
        from .experiments.harness import _signal_shield
        command = {"build": _command_build, "sweep": _command_sweep,
                   "resume": _command_resume}[args.command]
        try:
            with _signal_shield():
                print(command(args))
        except SweepInterrupted as exc:
            print(exc, file=sys.stderr)
            return 130
        except ValueError as exc:   # unreadable/empty journal, bad grid
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0
    if args.command == "scorecard":
        from .experiments.scorecard import run_scorecard
        card = run_scorecard(None, args.scale)
        print(card.render())
        return 0 if card.passed else 1
    raise AssertionError(args.command)  # pragma: no cover - argparse


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
