"""Ablation: the FibreSwitch fabric the paper's conclusions recommend.

"To scale to configurations larger than the ones examined in this paper,
we recommend a more aggressive interconnect (e.g., multiple Fibre
Channel loops connected by a FibreSwitch)." — Section 4.2 / 6.

This bench runs the interconnect-bound case (sort at 128 disks) on the
dual loop and on FibreSwitch fabrics of growing segment counts, showing
the recommendation pays off exactly where the dual loop saturates.
"""

import pytest

from repro.arch import ActiveDiskConfig
from repro.experiments import run_task
from conftest import BENCH_SCALE


def sort_elapsed(disks, segments=None):
    config = ActiveDiskConfig(num_disks=disks)
    if segments is not None:
        config = config.with_fibreswitch(segments)
    return run_task(config, "sort", BENCH_SCALE).elapsed


def test_fibreswitch_scaling(save_report):
    rows = {}
    for disks in (64, 128):
        base = sort_elapsed(disks)
        rows[disks] = [("dual loop (200 MB/s)", base)]
        for segments in (4, 8):
            rows[disks].append(
                (f"fibreswitch x{segments} (~{segments * 100} MB/s)",
                 sort_elapsed(disks, segments)))
    lines = ["Ablation: FibreSwitch vs dual FC-AL (external sort)"]
    for disks, entries in rows.items():
        lines.append(f"{disks} disks:")
        base = entries[0][1]
        for label, value in entries:
            lines.append(f"  {label:28s} {value:7.2f}s "
                         f"({base / value:4.2f}x vs dual loop)")
    save_report("ablation_fibreswitch", "\n".join(lines))

    # At 128 disks (loop saturated) an 8-segment switch must win big;
    # at 64 disks (loop sufficient, per the paper) gains stay modest.
    at_128 = dict(rows[128])
    at_64 = dict(rows[64])
    assert at_128["fibreswitch x8 (~800 MB/s)"] < \
        0.8 * at_128["dual loop (200 MB/s)"]
    gain_64 = (at_64["dual loop (200 MB/s)"]
               / at_64["fibreswitch x8 (~800 MB/s)"])
    gain_128 = (at_128["dual loop (200 MB/s)"]
                / at_128["fibreswitch x8 (~800 MB/s)"])
    assert gain_128 > gain_64
