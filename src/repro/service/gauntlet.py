"""The chaos gauntlet: ``repro chaos`` — the service's ``repro audit``.

Runs one sweep through a live coordinator plus N real worker processes
while a seeded :class:`~repro.service.chaos.ChaosPlan` mangles the
coordinator's side of every connection — drops, duplicates, delays,
one-way partitions, abrupt disconnects — and (optionally) one seeded
worker SIGKILL mid-job. Then it asserts the two properties the
hardening exists to guarantee:

* **Byte identity** — the artifacts the chaos-ridden service run
  produces are byte-for-byte identical to an inline ``repro sweep`` of
  the same request.
* **Exactly-once application** — the job journal contains exactly one
  ``done`` record per cell; duplicated or salvaged late results show
  up only as ``duplicate_dropped`` / ``epoch_fence`` service events,
  never as a second application.

Determinism: the same ``--seed`` produces the same :class:`ChaosPlan`,
the same per-channel RNG streams, and the same kill victim, so a
failing gauntlet run is replayable. (Wall-clock interleaving still
varies — the *schedule* is deterministic per channel, the thread timing
is not — which is exactly the point: the guarantees must hold for every
interleaving.)
"""

from __future__ import annotations

import json
import os
import random
import signal
import time
from typing import Callable, Dict, Optional

from ..experiments.harness import SweepRunner
from ..experiments.journal import SweepJournal
from .chaos import ChaosPlan, ChaosSpec, ChaosTransport
from .coordinator import Coordinator
from .requests import SweepRequest
from .server import spawn_local_workers
from .transport import SocketTransport

__all__ = ["default_plan", "default_request", "run_gauntlet",
           "render_report"]

#: Cells must finish despite chaos within this budget.
_DEADLINE = 600.0


def default_plan(seed: int = 0) -> ChaosPlan:
    """The stock drop+duplicate+delay+partition schedule.

    Probabilities are low enough that retries/reconnects converge, high
    enough that a quick run still takes real hits; ``accept*`` targets
    every coordinator-side channel (workers and one-shot clients).
    """
    return ChaosPlan.of(
        ChaosSpec(kind="drop", target="accept*", direction="both",
                  probability=0.04, after=2),
        ChaosSpec(kind="duplicate", target="accept*", direction="recv",
                  probability=0.08),
        ChaosSpec(kind="delay", target="accept*", direction="recv",
                  probability=0.05, magnitude=2),
        ChaosSpec(kind="partition", target="accept#1", direction="recv",
                  probability=0.02, magnitude=6, limit=1, after=4),
        seed=seed)


def default_request(quick: bool = False) -> Dict:
    if quick:
        return {"figure": "fig1", "sizes": [2], "tasks": ["select"],
                "scale": 1 / 64}
    return {"figure": "fig1", "sizes": [2, 4], "tasks": ["select", "sort"],
            "scale": 1 / 64}


def _done_record_counts(journal_path: str) -> Dict[str, int]:
    """Raw count of ``done`` cell records per key — the exactly-once
    evidence, read from the journal *lines* (the folded state cannot
    see a double application)."""
    counts: Dict[str, int] = {}
    with open(journal_path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue    # torn tail
            if (record.get("kind") == "cell"
                    and record.get("status") == "done"):
                key = record.get("key", "?")
                counts[key] = counts.get(key, 0) + 1
    return counts


def _compare_artifacts(service_dir: str, inline_dir: str) -> Dict:
    names = sorted(name for name in os.listdir(inline_dir)
                   if os.path.isfile(os.path.join(inline_dir, name)))
    mismatched = []
    for name in names:
        service_path = os.path.join(service_dir, name)
        if not os.path.exists(service_path):
            mismatched.append(name)
            continue
        with open(service_path, "rb") as service_file:
            with open(os.path.join(inline_dir, name), "rb") as inline_file:
                if service_file.read() != inline_file.read():
                    mismatched.append(name)
    return {"files": names, "mismatched": mismatched,
            "identical": bool(names) and not mismatched}


def run_gauntlet(state_dir: str, *,
                 request: Optional[Dict] = None,
                 plan: Optional[ChaosPlan] = None,
                 seed: int = 0,
                 workers: int = 2,
                 quick: bool = False,
                 retries: int = 8,
                 kill_worker: bool = True,
                 telemetry=None,
                 log: Optional[Callable[[str], None]] = None) -> Dict:
    """Run one chaos-ridden service sweep and verify the guarantees.

    Returns a report dict; ``report["ok"]`` is the verdict. ``seed``
    feeds both the chaos plan (when none is given) and the kill
    schedule. The journals stay under ``state_dir`` for post-mortems.
    """
    def say(message: str) -> None:
        if log is not None:
            log(message)

    if request is None:
        request = default_request(quick)
    if plan is None:
        plan = default_plan(seed)
    rng = random.Random(f"gauntlet:{seed}")
    os.makedirs(state_dir, exist_ok=True)
    address = os.path.join(state_dir, "chaos.sock")
    out_dir = os.path.join(state_dir, "out")

    chaos = ChaosTransport(SocketTransport(), plan, telemetry=telemetry)
    listener = chaos.listen(address)
    coordinator = Coordinator(
        os.path.join(state_dir, "svc"), listener, out_dir=out_dir,
        retries=retries, backoff=0.02,
        heartbeat_timeout=3.0, assign_timeout=10.0,
        telemetry=telemetry, log=log)
    procs = spawn_local_workers(address, workers, heartbeat_interval=0.1)
    victim = (rng.randrange(workers) if kill_worker and workers > 1
              else None)
    say(f"chaos gauntlet: seed {seed}, {len(plan)} rule(s), "
        f"{workers} worker(s)"
        + (f", will SIGKILL worker {victim + 1} after first result"
           if victim is not None else ""))
    job = coordinator.submit(request)
    deadline = time.monotonic() + _DEADLINE
    try:
        while not (coordinator.queue.counts()["done"]
                   + coordinator.queue.counts()["failed"]):
            if not coordinator.step():
                coordinator.wait(0.002)
            if (victim is not None
                    and coordinator.counters["results"] >= 1):
                proc = procs[victim]
                if proc.pid is not None and proc.is_alive():
                    say(f"SIGKILL worker {victim + 1} (pid {proc.pid})")
                    os.kill(proc.pid, signal.SIGKILL)
                victim = None
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"gauntlet did not converge within {_DEADLINE:g}s "
                    f"(journal: {coordinator.journal_path_for(job.id)})")
    finally:
        coordinator.close()
        for proc in procs:
            proc.join(2.0)
            if proc.is_alive():
                proc.kill()

    journal_path = coordinator.journal_path_for(job.id)
    journal = SweepJournal.load(journal_path)
    done_counts = _done_record_counts(journal_path)
    duplicates_applied = {key: count for key, count in done_counts.items()
                         if count > 1}

    say("chaos run finished; regenerating the inline reference sweep")
    inline_dir = os.path.join(state_dir, "inline-out")
    inline = SweepRequest.from_dict(dict(request, out_dir=inline_dir))
    inline.run_with(SweepRunner(os.path.join(state_dir,
                                             "inline.journal.jsonl")))
    comparison = _compare_artifacts(out_dir, inline_dir)

    total_cells = len(inline.cells())
    report = {
        "job": job.id,
        "status": coordinator.queue.jobs[job.id].status,
        "seed": seed,
        "plan": plan.to_dict(),
        "cells": total_cells,
        "done_records": done_counts,
        "duplicates_applied": duplicates_applied,
        "chaos_fired": dict(chaos.stats),
        "counters": dict(coordinator.counters),
        "events": journal.service_event_counts(),
        "artifacts": comparison,
        "journal": journal_path,
    }
    report["ok"] = (report["status"] == "done"
                    and not duplicates_applied
                    and len(done_counts) == total_cells
                    and all(count == 1 for count in done_counts.values())
                    and comparison["identical"])
    return report


def render_report(report: Dict) -> str:
    """Human-readable gauntlet verdict for the CLI."""
    lines = [f"chaos gauntlet (seed {report['seed']}): "
             + ("OK" if report["ok"] else "FAILED")]
    lines.append(f"  job {report['job']}: {report['status']}, "
                 f"{report['cells']} cell(s), each applied "
                 + ("exactly once" if not report["duplicates_applied"]
                    else f"— DUPLICATES: {report['duplicates_applied']}"))
    fired = report.get("chaos_fired") or {}
    lines.append("  chaos fired: " + (", ".join(
        f"{kind}={count}" for kind, count in sorted(fired.items()))
        or "nothing"))
    events = report.get("events") or {}
    interesting = ", ".join(f"{name}={count}" for name, count
                            in sorted(events.items()) if count)
    if interesting:
        lines.append(f"  service events: {interesting}")
    artifacts = report["artifacts"]
    if artifacts["identical"]:
        lines.append(f"  artifacts byte-identical to inline sweep "
                     f"({len(artifacts['files'])} file(s))")
    else:
        lines.append(f"  ARTIFACT MISMATCH: {artifacts['mismatched']}")
    lines.append(f"  journal: {report['journal']}")
    return "\n".join(lines)
