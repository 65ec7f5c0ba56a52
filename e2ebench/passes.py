"""One benchmark pass of one workload, in a fresh process.

Usage (``run.py`` does this; it is not meant to be typed)::

    python3 e2ebench/passes.py WORKLOAD SEED TRACE WORK_DIR OUT_JSON \
        [--setup-only]

Each workload is a generator: the code before its ``yield`` is set-up
(the imports are done first, by ``main``), the code after it is the
measured work. ``--setup-only`` stops at the ``yield``, so ``run.py``
can sample set-up time more often than whole passes fit in a run.

The pass writes one JSON object to ``OUT_JSON``: monotonic time stamps
(``run.py`` subtracts its own spawn stamp; CLOCK_MONOTONIC is
system-wide on Linux), cells attempted and failed, simulated seconds,
peak RSS, and, with ``TRACE`` 1, the per-layer self time and counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import json
import os
import random
import resource
import sys
import threading
import time
from typing import Dict, List

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
REFS_DIR = os.path.join(BENCH_DIR, "refs")
FIG1_BASELINE = os.path.join(ROOT, "results", "fig1_arch_comparison.csv")

sys.path.insert(0, BENCH_DIR)
from tracing import LayerProfile, Spans, counting_io  # noqa: E402

#: fig1_grid: the 16-disk column of Figure 1 (every task x architecture),
#: the column the repository's quick identity guard also uses. The
#: scale is read from the committed CSV.
FIG1_SIZES = (16,)

#: traffic_mix: offered loads as multiples of analytic capacity.
TRAFFIC_LOADS = (0.5, 1.5)
TRAFFIC_DISKS = 16
TRAFFIC_SESSIONS = 10000
#: The arrival seed is ``--seed`` modulo this; refs/traffic_mix.json
#: holds the reference outputs of every arrival seed below it.
TRAFFIC_REF_SEEDS = 20

#: service_sweep and sweep_journal: four figure grids on tiny farms,
#: through the service or through the journaled harness.
SWEEP_FIGURES = ("fig1", "fig2", "fig4", "fig5")
SWEEP_SIZES = (2, 4, 8)
SWEEP_SCALE = 1.0 / 4096.0
SWEEP_JOBS = 2
SERVICE_WORKERS = 2

_SWEEP_IMPORTS = ["repro.durability.io_layer", "repro.experiments",
                  "repro.service.requests"]
#: Modules each workload imports before its clock starts counting work.
IMPORTS = {
    "fig1_grid": ["repro.arch", "repro.experiments", "repro.sim",
                  "repro.workloads"],
    "traffic_mix": ["repro.analysis.bottleneck", "repro.experiments",
                    "repro.tracegen", "repro.traffic", "repro.workloads"],
    "service_sweep": _SWEEP_IMPORTS + ["repro.service.coordinator",
                                       "repro.service.server",
                                       "repro.service.transport"],
    "sweep_journal": _SWEEP_IMPORTS,
}
ARCHS = ("active", "cluster", "smp")

#: Per-layer sizing times, read from the profile as the cumulative host
#: time of the program's own calls (``run_traffic`` sizes every task on
#: each call; fig1 cells build their programs).
PROFILED_CALLS = {
    "workloads.build_program_s":
        (os.path.join("repro", "workloads", "tasks", "base.py"),
         "build_program"),
    "analysis.analyze_s":
        (os.path.join("repro", "analysis", "bottleneck.py"), "analyze"),
    "tracegen.session_totals_s":
        (os.path.join("repro", "tracegen", "traces.py"), "session_totals"),
}


class Pass:
    """What one pass measured and checked."""

    def __init__(self, seed: int, traced: bool, work_dir: str,
                 refs_dir: str = REFS_DIR):
        self.seed = seed
        self.traced = traced
        self.work_dir = work_dir
        self.refs_dir = refs_dir
        self.spans = Spans()
        self.setup_end = 0.0
        self.work_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.sim_s = 0.0
        self.problems: List[str] = []
        self.counts: Dict[str, float] = {}

    def fail(self, message: str, cells: int = 1) -> None:
        self.failed += cells
        if len(self.problems) < 10:
            self.problems.append(message)

    def add(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def ref(self, name: str) -> Dict:
        with open(os.path.join(self.refs_dir, name), encoding="utf-8") as f:
            return json.load(f)


# ------------------------------------------------------------ simulators
def counting_simulator(events_path: str):
    """A Simulator that appends its event count to ``events_path`` after
    every ``run()``; worker processes forked from the pass inherit it,
    so their simulators are counted too."""
    from repro.sim import Simulator

    class CountingSimulator(Simulator):
        def run(self, *args, **kwargs):
            try:
                return super().run(*args, **kwargs)
            finally:
                resizes = getattr(getattr(self, "_queue", None),
                                  "resizes", 0)
                with open(events_path, "a", encoding="utf-8") as handle:
                    handle.write(f"{self.event_count} {resizes}\n")

    return CountingSimulator


def install_counting_simulator(p: Pass):
    """Route the program's own Simulator constructions (cells and, when
    loaded, the traffic engine) through the counting subclass."""
    cls = counting_simulator(os.path.join(p.work_dir, "sim-events.txt"))
    for name in ("repro.experiments.runner", "repro.traffic.engine"):
        if name in sys.modules:
            sys.modules[name].Simulator = cls
    return cls


def fold_sim_events(p: Pass) -> None:
    path = os.path.join(p.work_dir, "sim-events.txt")
    events = resizes = 0
    if os.path.exists(path):
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                count, grown = line.split()
                events += int(count)
                resizes += int(grown)
    p.add("sim.events", events)
    p.add("sim.queue_resizes", resizes)


# ------------------------------------------------------------- fig1_grid
def fig1_grid(p: Pass):
    from repro.arch import build_machine
    from repro.experiments import (
        Fig1Result, Sweep, SweepCell, config_for, fig1_rows, rows_to_csv,
        run_fig1,
    )
    from repro.sim import Simulator
    from repro.workloads import build_program, registered_tasks

    with open(FIG1_BASELINE, "rb") as handle:
        baseline = handle.read().split(b"\r\n")
    scale = float(baseline[1].split(b",")[4])
    wanted = {str(size).encode() for size in FIG1_SIZES}
    expected = [line for line in baseline[1:]
                if line and line.split(b",")[3] in wanted]
    tasks = registered_tasks()
    sim_class = install_counting_simulator(p) if p.traced else Simulator
    # First machine build: imports and lazily built tables warm here.
    config = config_for("active", FIG1_SIZES[0])
    build_machine(sim_class(), config)
    build_program(tasks[0], config, scale)
    yield

    if not p.traced:
        result = run_fig1(sizes=FIG1_SIZES, scale=scale)
    else:
        sweep = Sweep()
        for size in FIG1_SIZES:
            for arch in ARCHS:
                for task in tasks:
                    config = config_for(arch, size)
                    with p.spans.span("arch.build"):
                        machine = build_machine(sim_class(), config)
                    program = build_program(task, config, scale)
                    with p.spans.span("arch.run"):
                        run = machine.run(program)
                    _count_machine(p, machine)
                    sweep.add(SweepCell(task, arch, size, "base", run))
        result = Fig1Result(sweep=sweep, sizes=FIG1_SIZES, tasks=tasks,
                            scale=scale)
    fresh = rows_to_csv(fig1_rows(result)).encode().split(b"\r\n")[1:-1]
    p.attempted += len(result.sweep.cells)
    p.sim_s += sum(cell.elapsed for cell in result.sweep.cells)
    if len(fresh) != len(expected):
        p.fail(f"fig1: {len(fresh)} rows, baseline has {len(expected)}",
               cells=abs(len(fresh) - len(expected)))
    for got, want in zip(fresh, expected):
        if got != want:
            p.fail(f"fig1 row differs: {got!r} != {want!r}")


def _count_machine(p: Pass, machine) -> None:
    """Device counters from one finished machine's public state."""
    drives = [node.drive for node in getattr(machine, "nodes", ())]
    drives += list(getattr(machine, "drives", ()))
    hits = lookups = 0
    for drive in drives:
        p.add("disk.bytes_read", drive.bytes_read)
        p.add("disk.bytes_written", drive.bytes_written)
        hits += drive.cache.hits + drive.cache.streaming_hits
        lookups += drive.cache.total_lookups
    p.add("disk.cache_hits", hits)
    p.add("disk.cache_lookups", lookups)
    if machine.arch == "active":
        # Every media request of a disklet passes through DiskOS.
        p.add("diskos.dispatches", lookups)
    extras = machine.collect_extras()
    p.add("interconnect.bytes",
          extras.get("fc_bytes", 0.0) + extras.get("numa_bytes", 0.0))
    p.add("net.messages", extras.get("net_messages", 0.0))
    p.add("net.bytes", extras.get("net_bytes", 0.0))


# ----------------------------------------------------------- traffic_mix
def traffic_seed(seed: int) -> int:
    return seed % TRAFFIC_REF_SEEDS


def traffic_configs(seed: int):
    from repro.traffic import TrafficConfig
    return [TrafficConfig(arch=arch, num_disks=TRAFFIC_DISKS,
                          sessions=TRAFFIC_SESSIONS, seed=traffic_seed(seed),
                          load=load)
            for arch in ARCHS for load in TRAFFIC_LOADS]


def traffic_summary(result) -> Dict:
    """The outputs a traffic cell is checked on."""
    return {
        "arrivals": result.arrivals, "completed": result.completed,
        "shed": result.shed, "deadline_missed": result.deadline_missed,
        "peak_queue_depth": result.peak_queue_depth,
        "makespan": result.makespan,
        "sojourn": {q: result.sojourn[q] for q in ("p50", "p95", "p99")},
        "wait": {q: result.wait[q] for q in ("p50", "p95", "p99")},
    }


def traffic_key(tconfig) -> str:
    return f"{tconfig.arch}@{tconfig.load:g}"


def traffic_mix(p: Pass):
    """Set-up ends at the first ``run_traffic`` call: the program sizes
    its tasks inside every call, so that sizing counts as work."""
    from repro.traffic import run_traffic

    reference = p.ref("traffic_mix.json")
    if reference["sessions"] != TRAFFIC_SESSIONS:
        raise SystemExit("refs/traffic_mix.json was made for another "
                         "session count; regenerate it with make_refs.py")
    expected = reference["seeds"][str(traffic_seed(p.seed))]
    configs = traffic_configs(p.seed)
    if p.traced:
        install_counting_simulator(p)
    yield

    peak = 0
    for tconfig in configs:
        with p.spans.span("traffic.run"):
            result = run_traffic(tconfig)
        p.attempted += 1
        p.sim_s += result.makespan
        p.add("traffic.arrivals", result.arrivals)
        p.add("traffic.shed", result.shed)
        p.add("traffic.deadline_missed", result.deadline_missed)
        peak = max(peak, result.peak_queue_depth)
        if traffic_summary(result) != expected.get(traffic_key(tconfig)):
            p.fail(f"traffic {traffic_key(tconfig)} seed "
                   f"{tconfig.seed}: outputs differ from the reference")
    p.counts["traffic.peak_queue_depth"] = peak


# --------------------------------------------------------- sweep grids
def sweep_requests(out_dir: str):
    from repro.service.requests import SweepRequest
    return [SweepRequest(figure=figure, sizes=SWEEP_SIZES, scale=SWEEP_SCALE,
                         out_dir=out_dir)
            for figure in SWEEP_FIGURES]


def artifact_digests(out_dir: str) -> Dict[str, str]:
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        path = os.path.join(out_dir, name)
        if os.path.isfile(path) and not name.endswith(".journal.jsonl"):
            with open(path, "rb") as handle:
                digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def check_sweep(p: Pass, elapsed: Dict[str, float], out_dir: str,
                cells_of: Dict[str, List[str]]) -> None:
    """Per-cell simulated times and artifact bytes against the reference.

    A differing artifact fails every cell of its figure that did not
    already fail on its own.
    """
    reference = p.ref("sweep.json")
    bad = set()
    for key, want in reference["cells"].items():
        if elapsed.get(key) != want:
            bad.add(key)
            p.fail(f"sweep cell {key}: elapsed {elapsed.get(key)!r} "
                   f"!= {want!r}", cells=0)
    digests = artifact_digests(out_dir)
    for name, want in reference["artifacts"].items():
        if digests.get(name) != want:
            figure = name.split(".")[0]
            bad.update(cells_of.get(figure, reference["cells"]))
            p.fail(f"artifact {name} differs from the reference", cells=0)
    p.failed += len(bad)


def sweep_setup(p: Pass, name: str):
    """Output directory, seed-shuffled requests, cell keys per figure,
    and the durability IO layer the stage runs under."""
    from repro.durability.io_layer import REAL_IO

    out_dir = os.path.join(p.work_dir, name)
    os.makedirs(out_dir)
    requests = sweep_requests(out_dir)
    cells_of = {r.figure: [s.key for s in r.cells()] for r in requests}
    io_layer = counting_io() if p.traced else REAL_IO
    if p.traced:
        install_counting_simulator(p)
    return out_dir, requests, cells_of, io_layer


def count_io(p: Pass, io_layer) -> None:
    if p.traced:
        p.counts.update({
            "journal.appends": io_layer.journal_appends,
            "journal.bytes": io_layer.journal_bytes,
            "durability.fsyncs": io_layer.fsyncs,
            "durability.fsync_s": io_layer.fsync_s,
            "durability.write_bytes": io_layer.write_bytes,
        })


def service_sweep(p: Pass):
    """The grid as one job per figure, submitted in a seed-shuffled
    order to a ``Coordinator`` on a unix socket with two local workers.
    Set-up is the coordinator and the workers' registration; the work is
    from the first submit until every job is terminal."""
    from repro.durability.io_layer import io_scope
    from repro.service.coordinator import Coordinator
    from repro.service.server import spawn_local_workers
    from repro.service.transport import SocketTransport

    out_dir, jobs, cells_of, io_layer = sweep_setup(p, "service")
    random.Random(p.seed).shuffle(jobs)
    state_dir = os.path.join(p.work_dir, "state")
    os.makedirs(state_dir)
    # A relative socket path keeps clear of the unix-socket length limit.
    address = os.path.relpath(os.path.join(p.work_dir, "svc.sock"))
    coordinator = Coordinator(state_dir, SocketTransport().listen(address),
                              out_dir=out_dir)
    procs = spawn_local_workers(address, SERVICE_WORKERS)
    try:
        deadline = time.monotonic() + 60
        while len(coordinator.workers) < SERVICE_WORKERS:
            if time.monotonic() > deadline:
                raise SystemExit("service workers never registered")
            if not coordinator.step():
                time.sleep(0.001)
        yield

        began = time.monotonic()
        with io_scope(io_layer), p.spans.span("service.run"):
            for job in jobs:
                coordinator.submit(job.to_dict())
            _serve_until_terminal(coordinator, len(jobs))
        p.work_s = time.monotonic() - began
    finally:
        coordinator.close()
        for proc in procs:
            proc.join(10)
            if proc.is_alive():
                proc.terminate()
                proc.join(5)
    check_service(p, coordinator, out_dir, cells_of)
    count_io(p, io_layer)
    if p.traced:
        counters = coordinator.counters
        p.counts.update({
            "service.dispatched": counters["dispatched"],
            "service.heartbeats": counters["heartbeats"],
            "service.reassigned": counters["reassigned"],
            "service.cell_rtt_s": (SERVICE_WORKERS * p.work_s
                                   / max(1, counters["dispatched"])),
            "workers.spawned": SERVICE_WORKERS,
        })


def check_service(p: Pass, coordinator, out_dir: str,
                  cells_of: Dict[str, List[str]]) -> None:
    from repro.experiments import SweepJournal

    elapsed: Dict[str, float] = {}
    for job in coordinator.queue.jobs.values():
        journal = SweepJournal.load(coordinator.journal_path_for(job.id))
        for key, state in journal.cells.items():
            p.attempted += 1
            if state.status == "done":
                elapsed[key] = state.result["elapsed"]
    p.sim_s += sum(elapsed.values())
    failed_jobs = coordinator.queue.counts()["failed"]
    if failed_jobs:
        p.fail(f"{failed_jobs} service job(s) failed", cells=0)
    check_sweep(p, elapsed, out_dir, cells_of)


def sweep_journal(p: Pass):
    """The grid through a journaled ``SweepRunner`` with a process per
    cell, in a seed-shuffled cell order; that write path is the work.
    Then the read path, timed as ``harness.resume_s``: reload the
    finished journal and rebuild every figure's artifacts from it with
    no cell re-run."""
    from repro.durability.io_layer import io_scope
    from repro.experiments import SweepJournal, SweepRunner

    out_dir, requests, cells_of, io_layer = sweep_setup(p, "journal")
    specs = [spec for request in requests for spec in request.cells()]
    random.Random(p.seed).shuffle(specs)
    journal_path = os.path.join(out_dir, "sweep.journal.jsonl")
    yield

    with io_scope(io_layer):
        began = time.monotonic()
        # One retry, as `repro sweep` defaults to: a cell whose worker
        # exits between the supervisor's result poll and its liveness
        # check is reported as crashed, and the retry keeps that from
        # failing a cell.
        runner = SweepRunner(journal_path, jobs=SWEEP_JOBS, retries=1,
                             strict=False)
        with p.spans.span("harness.run"):
            results = runner.run(specs)
        p.work_s = time.monotonic() - began
        p.attempted += len(specs)
        p.sim_s += sum(result.elapsed for result in results.values())
        if runner.quarantined:
            p.fail(f"{len(runner.quarantined)} cell(s) quarantined", cells=0)

        began = time.monotonic()
        with p.spans.span("journal.load"):
            journal = SweepJournal.load(journal_path)
        resumed = 0
        for request in requests:
            rebuild = SweepRunner(journal_path)
            with p.spans.span("harness.resume"):
                request.run_with(rebuild)
            resumed += rebuild.counters["resumed_cells"]
            if rebuild.counters["completed"]:
                p.fail(f"{request.figure}: resume re-ran "
                       f"{rebuild.counters['completed']} cell(s)", cells=0)
        p.counts["harness.resume_s"] = time.monotonic() - began
    elapsed = {key: state.result["elapsed"]
               for key, state in journal.done().items()}
    check_sweep(p, elapsed, out_dir, cells_of)
    count_io(p, io_layer)
    if p.traced:
        p.counts.update({
            "harness.completed": runner.counters["completed"],
            "harness.retries": runner.counters["retries"],
            "harness.resumed_cells": resumed,
            "workers.spawned": (runner.counters["scheduled"]
                                + runner.counters["retries"]),
            "workers.cell_s": (SWEEP_JOBS * p.work_s
                               / max(1, runner.counters["completed"])),
        })


def _serve_until_terminal(coordinator, jobs: int) -> None:
    """Run the coordinator's own loop until ``jobs`` jobs are terminal."""
    done = threading.Event()

    def watch():
        while not done.wait(0.002):
            counters = coordinator.counters
            if counters["jobs_completed"] + counters["jobs_failed"] >= jobs:
                coordinator.stop()
                return

    watcher = threading.Thread(target=watch, daemon=True)
    watcher.start()
    try:
        coordinator.serve_forever(poll_interval=0.002)
    finally:
        done.set()
        watcher.join()


WORKLOADS = {
    "fig1_grid": fig1_grid,
    "traffic_mix": traffic_mix,
    "service_sweep": service_sweep,
    "sweep_journal": sweep_journal,
}


def main(argv: List[str]) -> int:
    workload, seed, trace, work_dir, out_path = argv[:5]
    setup_only = "--setup-only" in argv[5:]
    for module in IMPORTS[workload]:
        importlib.import_module(module)
    p = Pass(int(seed), trace == "1", work_dir)
    os.makedirs(work_dir, exist_ok=True)
    profile = LayerProfile() if p.traced else None
    with profile or contextlib.nullcontext():
        steps = WORKLOADS[workload](p)
        next(steps)
        p.setup_end = time.monotonic()
        if setup_only:
            steps.close()
        else:
            for _ in steps:
                pass
            if not p.work_s:
                p.work_s = time.monotonic() - p.setup_end
        end = time.monotonic()
    p.spans.write(os.path.join(work_dir, "spans.json"))
    if profile is not None:
        fold_sim_events(p)
        for name in ("arch.build", "arch.run", "journal.load"):
            p.counts[f"{name}_s"] = p.spans.total(name)
        for name, (path, function) in PROFILED_CALLS.items():
            p.counts[name] = profile.cumulative_s(path, function)
    report = {
        "setup_end": p.setup_end, "end": end, "work_s": p.work_s,
        "attempted": p.attempted, "failed": p.failed, "sim_s": p.sim_s,
        "problems": p.problems, "counts": p.counts,
        "layer_self_s": profile.self_s if profile is not None else {},
        "rss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "rss_children_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
