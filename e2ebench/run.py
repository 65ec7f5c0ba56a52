"""The repository benchmark: one workload, measured end to end.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload fig1_grid --seed 1 --seconds 20 --trace 0

The run starts fresh processes (``passes.py``) one after another, each
running one whole pass of the workload, until ``--seconds`` have gone
by, and reports medians over those passes. Each pass checks its own
outputs against the committed references. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and profiled
passes and reports the per-layer metrics (see README.md).

The last line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

The benchmark measures the default program: it refuses to run when any
``REPRO_*`` environment override is set.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_ROOT = os.path.join(ROOT, ".bench_work")
PASSES = os.path.join(BENCH_DIR, "passes.py")

sys.path.insert(0, BENCH_DIR)
import calibration  # noqa: E402
from tracing import LAYERS  # noqa: E402

WORKLOADS = ("fig1_grid", "traffic_mix", "service_sweep", "sweep_journal")
#: Workloads whose time metrics are given at the reference host speed
#: (calibration.py). On a shared 2-vCPU host this cut the spread of
#: traffic_mix's cells_per_s over eight to ten seeds from 0.27-0.32 to
#: 0.08-0.12 of its median. It did not help the others: fig1_grid's long
#: passes leave few gaps to sample (0.13 widened to 0.26 once), and the
#: sweeps wait on forks, pipes and fsyncs, which the kernel does not
#: track. Those are given in host seconds.
CALIBRATED = ("traffic_mix",)
#: Fresh set-up samples per run; set-up-only processes fill the gap
#: when fewer whole passes fit in ``--seconds``.
MIN_SETUPS = 5
#: Every run ends well inside three minutes, hung passes included.
RUN_LIMIT_S = 170.0

END_TO_END = (("wall_s", "s"), ("setup_s", "s"), ("cells_per_s", "cells/s"),
              ("sim_s_per_host_s", "ratio"), ("peak_rss_mb", "MiB"))

SELF_FRACS = tuple(f"{layer}.self_frac" for layer in LAYERS + ("other",))
PER_LAYER_UNITS = {
    "sim.events": "count", "sim.events_per_host_s": "1/s",
    "sim.queue_resizes": "count",
    "disk.bytes_read": "bytes", "disk.bytes_written": "bytes",
    "disk.cache_hit_ratio": "fraction",
    "interconnect.bytes": "bytes", "net.messages": "count",
    "net.bytes": "bytes", "diskos.dispatches": "count",
    "arch.build_s": "s", "arch.run_s": "s",
    "workloads.build_program_s": "s", "tracegen.session_totals_s": "s",
    "analysis.analyze_s": "s",
    "traffic.arrivals": "count", "traffic.shed": "count",
    "traffic.deadline_missed": "count", "traffic.peak_queue_depth": "count",
    "traffic.sessions_per_s": "sessions/s",
    "harness.completed": "count", "harness.retries": "count",
    "harness.resumed_cells": "count", "harness.resume_s": "s",
    "workers.spawned": "count", "workers.cell_s": "s",
    "journal.appends": "count", "journal.bytes": "bytes",
    "journal.load_s": "s",
    "durability.fsyncs": "count", "durability.fsync_s": "s",
    "durability.write_bytes": "bytes",
    "service.dispatched": "count", "service.heartbeats": "count",
    "service.reassigned": "count", "service.cell_rtt_s": "s",
    "trace_overhead": "ratio", "calibration_s": "s",
}
PER_LAYER_UNITS.update({name: "fraction" for name in SELF_FRACS})


class PassFailed(RuntimeError):
    """A pass process exited abnormally or overran the run limit."""


def refuse_overrides() -> None:
    overrides = sorted(name for name in os.environ
                       if name.startswith("REPRO_"))
    if overrides:
        raise SystemExit(
            f"refusing to run: {', '.join(overrides)} set; the benchmark "
            f"measures the default program only")


def require_program() -> None:
    needed = (os.path.join(ROOT, "src", "repro", "__init__.py"),
              os.path.join(ROOT, "results", "fig1_arch_comparison.csv"))
    missing = [path for path in needed if not os.path.exists(path)]
    if missing:
        raise SystemExit("no program to measure: missing "
                         + ", ".join(os.path.relpath(p, ROOT)
                                     for p in missing))


def run_pass(workload: str, seed: int, traced: bool, index: int,
             deadline: float, setup_only: bool = False) -> Dict:
    """One pass in a fresh process; returns its report plus wall times."""
    work_dir = os.path.join(WORK_ROOT, workload, f"pass{index}")
    out_path = work_dir + ".json"
    log_path = work_dir + ".log"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, PASSES, workload, str(seed),
               "1" if traced else "0", work_dir, out_path]
    if setup_only:
        command.append("--setup-only")
    with open(log_path, "w", encoding="utf-8") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(command, cwd=ROOT, env=env, stdout=log,
                                stderr=subprocess.STDOUT,
                                stdin=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            code = proc.wait(timeout=max(1.0, deadline - spawned))
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _kill_group(proc)
        ended = time.monotonic()
    if code != 0:
        with open(log_path, encoding="utf-8", errors="replace") as log:
            tail = log.read()[-3000:]
        why = "overran the run limit" if code is None else f"exited {code}"
        raise PassFailed(f"{workload} pass {index} {why}:\n{tail}")
    with open(out_path, encoding="utf-8") as handle:
        report = json.load(handle)
    report["wall_s"] = ended - spawned
    report["setup_s"] = report["setup_end"] - spawned
    report["traced"] = traced
    return report


def _kill_group(proc: subprocess.Popen) -> None:
    """Stop the pass and anything it started, and wait for the pass."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass
    proc.wait()


def end_to_end(report: Dict, scale: float) -> Dict[str, float]:
    """One pass's metrics; ``scale`` turns host seconds into seconds at
    the reference host speed (calibration.py)."""
    work = report["work_s"] * scale
    return {
        "wall_s": report["wall_s"] * scale,
        "setup_s": report["setup_s"] * scale,
        "cells_per_s": report["attempted"] / work,
        "sim_s_per_host_s": report["sim_s"] / work,
        "peak_rss_mb": (report["rss_self_kb"]
                        + report["rss_children_kb"]) / 1024.0,
    }


def per_layer(plain: List[Dict], traced: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics from the profiled passes; rates use the host
    time of the untraced passes, since profiling slows the host."""
    self_s: Dict[str, float] = {}
    for report in traced:
        for layer, seconds in report["layer_self_s"].items():
            self_s[layer] = self_s.get(layer, 0.0) + seconds
    total = sum(self_s.values())
    out = {f"{layer}.self_frac": self_s.get(layer, 0.0) / total
           for layer in LAYERS + ("other",)}
    names = set().union(*(report["counts"] for report in traced))
    counts = {name: statistics.median(report["counts"].get(name, 0.0)
                                      for report in traced)
              for name in names}
    work_s = statistics.median(report["work_s"] for report in plain)
    for name in PER_LAYER_UNITS:
        if name not in out:
            out[name] = float(counts.get(name, 0.0))
    lookups = counts.get("disk.cache_lookups", 0.0)
    out["disk.cache_hit_ratio"] = (counts.get("disk.cache_hits", 0.0)
                                   / lookups if lookups else 0.0)
    out["sim.events_per_host_s"] = counts.get("sim.events", 0.0) / work_s
    out["traffic.sessions_per_s"] = (counts.get("traffic.arrivals", 0.0)
                                     / work_s)
    out["trace_overhead"] = (
        statistics.median(r["wall_s"] for r in traced)
        / statistics.median(r["wall_s"] for r in plain))
    return out


def self_frac_report(workload: str, metrics: Dict[str, float]) -> str:
    fracs = sorted(((metrics[name], name.split(".")[0])
                    for name in SELF_FRACS), reverse=True)
    total = sum(frac for frac, _ in fracs)
    if abs(total - 1.0) > 1e-6:
        raise AssertionError(f"self fractions sum to {total!r}, not 1")
    top = ", ".join(f"{layer} {frac:.1%}" for frac, layer in fracs[:3])
    lines = [f"{workload}: host self time by layer (top three: {top})"]
    lines += [f"  {layer:<14} {frac:7.2%}" for frac, layer in fracs
              if frac >= 0.0005 or layer == "other"]
    lines.append(f"  sum {total:.6f}; other.self_frac "
                 f"{metrics['other.self_frac']:.4f}; trace_overhead "
                 f"{metrics['trace_overhead']:.2f}x")
    return "\n".join(lines)


def measure(workload: str, seed: int, seconds: float, trace: bool
            ) -> Tuple[Dict, int, int, List[str], str]:
    shutil.rmtree(os.path.join(WORK_ROOT, workload), ignore_errors=True)
    os.makedirs(os.path.join(WORK_ROOT, workload))
    began = time.monotonic()
    deadline = began + RUN_LIMIT_S
    reports: List[Dict] = []
    # Host speed is sampled in every gap between passes, so it covers
    # the same minutes as the passes it rescales.
    kernel: List[float] = []
    while (not reports or time.monotonic() - began < seconds
           or (trace and len(reports) < 2)):
        traced = trace and len(reports) % 2 == 1
        kernel += calibration.samples()
        reports.append(run_pass(workload, seed, traced, len(reports),
                                deadline))
    plain = [r for r in reports if not r["traced"]]
    traced_reports = [r for r in reports if r["traced"]]
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < MIN_SETUPS:
        kernel += calibration.samples()
        probe = run_pass(workload, seed, False, len(reports) + len(setups),
                         deadline, setup_only=True)
        setups.append(probe["setup_s"])
    kernel += calibration.samples()
    kernel_s = statistics.median(kernel)
    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    problems = [p for r in reports for p in r["problems"]]
    if trace:
        metrics = per_layer(plain, traced_reports)
        metrics["calibration_s"] = kernel_s
        units = PER_LAYER_UNITS
        host = f"calibration kernel median {kernel_s:.4f} s"
    elif workload in CALIBRATED:
        metrics = medians(plain, setups,
                          calibration.REFERENCE_S / kernel_s)
        units = dict(END_TO_END)
        host = (f"calibration kernel median {kernel_s:.4f} s against "
                f"{calibration.REFERENCE_S} s; in host seconds: "
                + ", ".join(f"{name} {value:.6g}" for name, value
                            in medians(plain, setups, 1.0).items()))
    else:
        metrics = medians(plain, setups, 1.0)
        units = dict(END_TO_END)
        host = (f"calibration kernel median {kernel_s:.4f} s; "
                f"{workload} is reported in host seconds")
    result = {name: {"value": value, "unit": units[name]}
              for name, value in sorted(metrics.items())}
    return result, attempted, failed, problems, host


def medians(plain: List[Dict], setups: List[float], scale: float
            ) -> Dict[str, float]:
    samples = [end_to_end(r, scale) for r in plain]
    metrics = {name: statistics.median(s[name] for s in samples)
               for name, _ in END_TO_END}
    metrics["setup_s"] = statistics.median(setups) * scale
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    refuse_overrides()
    require_program()
    try:
        metrics, attempted, failed, problems, host = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload} seed {args.seed}: {attempted} cells attempted, "
          f"{failed} failed (failed_frac {failed / attempted:.4f})")
    for name, entry in metrics.items():
        print(f"  {name:<28} {entry['value']:>16.6g} {entry['unit']}")
    print(f"  ({host})")
    if args.trace:
        print(self_frac_report(
            args.workload, {k: v["value"] for k, v in metrics.items()}))
    print(json.dumps({"correct": failed == 0 and not problems,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
