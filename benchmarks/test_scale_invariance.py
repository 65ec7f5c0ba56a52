"""Meta-benchmark: the scaling methodology itself.

DESIGN.md claims normalized results are invariant under the dataset
scale because memory-dependent algorithm parameters scale alongside the
data. This bench measures the same Figure-1 cells at two scales a factor
of 4 apart and asserts the normalized ratios agree — the empirical
license for running every other benchmark at 1/32 scale.
"""

import pytest

from repro.experiments import run_fig1
from conftest import BENCH_SCALE

TASKS = ("select", "sort", "groupby")
SIZES = (16, 64)


def test_scale_invariance(save_report):
    coarse = run_fig1(sizes=SIZES, tasks=TASKS, scale=BENCH_SCALE / 4)
    fine = run_fig1(sizes=SIZES, tasks=TASKS, scale=BENCH_SCALE)

    lines = ["Meta: normalized ratios at two scales "
             f"({BENCH_SCALE / 4:g} vs {BENCH_SCALE:g})"]
    drifts = []
    for size in SIZES:
        for task in TASKS:
            for arch in ("cluster", "smp"):
                a = coarse.normalized(task, arch, size)
                b = fine.normalized(task, arch, size)
                drift = abs(a - b) / b
                drifts.append(drift)
                lines.append(f"  {task:8s}@{size:<3d} {arch:8s} "
                             f"{a:5.2f} vs {b:5.2f}  "
                             f"(drift {drift:5.1%})")
    save_report("scale_invariance", "\n".join(lines))

    # Ratios drift only through fixed per-request/per-message overheads,
    # which loom larger at tiny scales (the worst cell is the cluster's
    # front-end-bound group-by at 1/128). Average drift stays in single
    # digits, which is why the benchmark default is 1/32, not smaller.
    assert max(drifts) < 0.30
    assert sum(drifts) / len(drifts) < 0.10
