"""Regenerate the benchmark's reference outputs in ``e2ebench/refs/``.

Run from the root of a checkout, only when the simulated results are
meant to change (the fig1_grid reference is the committed
``results/fig1_arch_comparison.csv`` and is not written here)::

    PYTHONPATH=src python3 e2ebench/make_refs.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import passes  # noqa: E402


def traffic_reference() -> dict:
    from repro.traffic import run_traffic

    seeds = {}
    for seed in range(passes.TRAFFIC_REF_SEEDS):
        seeds[str(seed)] = {
            passes.traffic_key(tconfig):
                passes.traffic_summary(run_traffic(tconfig))
            for tconfig in passes.traffic_configs(seed)}
    return {"sessions": passes.TRAFFIC_SESSIONS, "seeds": seeds}


def sweep_reference() -> dict:
    from repro.experiments import SweepRunner

    out_dir = os.path.join(passes.ROOT, ".bench_work", "make_refs")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        journal = os.path.join(out_dir, "sweep.journal.jsonl")
        elapsed = {}
        for request in passes.sweep_requests(out_dir):
            runner = SweepRunner(journal)
            results = runner.run(request.cells())
            elapsed.update({key: result.elapsed
                            for key, result in results.items()})
            request.run_with(SweepRunner(journal))
        return {"cells": dict(sorted(elapsed.items())),
                "artifacts": passes.artifact_digests(out_dir)}
    finally:
        shutil.rmtree(out_dir)


def main() -> int:
    refs = passes.REFS_DIR
    os.makedirs(refs, exist_ok=True)
    for name, make in (("sweep.json", sweep_reference),
                       ("traffic_mix.json", traffic_reference)):
        with open(os.path.join(refs, name), "w", encoding="utf-8") as f:
            json.dump(make(), f, indent=1, sort_keys=True)
            f.write("\n")
        print(f"wrote {os.path.join(refs, name)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
