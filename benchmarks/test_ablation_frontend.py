"""Ablation: front-end processor speed (paper Section 2.1 variant).

The paper configures a 1 GHz front-end alternative. Tasks that funnel
volume through the front-end (group-by, restricted-mode shuffles) should
benefit; media-side tasks should not care.
"""

import pytest

from repro.arch import ActiveDiskConfig
from repro.experiments import run_task
from conftest import BENCH_SCALE


def elapsed(task, disks=64, frontend_mhz=450.0, restricted=False):
    config = ActiveDiskConfig(num_disks=disks).with_frontend_mhz(
        frontend_mhz)
    if restricted:
        config = config.restricted()
    return run_task(config, task, BENCH_SCALE).elapsed


def test_frontend_scaling(save_report):
    rows = []
    for task, restricted in (("select", False), ("groupby", False),
                             ("sort", True)):
        base = elapsed(task, restricted=restricted)
        fast = elapsed(task, frontend_mhz=1000.0, restricted=restricted)
        rows.append((task, "restricted" if restricted else "direct",
                     base, fast, base / fast))
    lines = ["Ablation: 450 MHz vs 1 GHz front-end (64 disks)",
             "task      mode        450MHz    1GHz    speedup"]
    for task, mode, base, fast, speedup in rows:
        lines.append(f"{task:9s} {mode:10s} {base:7.2f}s {fast:6.2f}s "
                     f"{speedup:5.2f}x")
    save_report("ablation_frontend", "\n".join(lines))

    by_task = {(task, mode): speedup
               for task, mode, _, _, speedup in rows}
    # Media-side scans are front-end-insensitive.
    assert by_task[("select", "direct")] == pytest.approx(1.0, abs=0.03)
    # The restricted-mode relay is front-end CPU heavy.
    assert by_task[("sort", "restricted")] > 1.1
