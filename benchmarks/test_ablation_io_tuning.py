"""Ablation: the paper's software tuning choices (Section 3).

Verifies that the tuning the paper applies — large (256 KB) requests and
deep (4) request queues — actually pays off in the model, and that the
SMP's split read/write disk groups for sort beat interleaved groups.
"""

import pytest

from repro.arch import ActiveDiskConfig, Phase, SMPConfig, TaskProgram, build_machine
from repro.arch.program import CostComponent
from repro.experiments import run_task
from repro.sim import Simulator
from conftest import BENCH_SCALE

KB = 1024


def select_elapsed(request_bytes, queue_depth):
    config = ActiveDiskConfig(num_disks=16,
                              io_request_bytes=request_bytes,
                              queue_depth=queue_depth)
    return run_task(config, "select", BENCH_SCALE).elapsed


def smp_sort_elapsed(split):
    """SMP shuffle+write phase with or without split disk groups."""
    config = SMPConfig(num_disks=16)
    program = TaskProgram(task="sortish", phases=(
        Phase(name="move", read_bytes_total=512 * 1_000_000,
              cpu=(CostComponent("partition", 10.0),),
              shuffle_fraction=1.0,
              recv=(CostComponent("append", 10.0),),
              recv_write_fraction=1.0,
              split_disk_groups=split),))
    sim = Simulator()
    return build_machine(sim, config).run(program).elapsed


def test_io_tuning(save_report):
    small_requests = select_elapsed(32 * KB, 4)
    shallow_queue = select_elapsed(256 * KB, 1)
    tuned = select_elapsed(256 * KB, 4)
    interleaved = smp_sort_elapsed(split=False)
    split = smp_sort_elapsed(split=True)

    lines = [
        "Ablation: I/O software tuning (16 disks)",
        f"select, 32 KB requests, depth 4 : {small_requests:7.2f}s",
        f"select, 256 KB requests, depth 1: {shallow_queue:7.2f}s",
        f"select, 256 KB requests, depth 4: {tuned:7.2f}s  (paper tuning)",
        f"SMP shuffle, interleaved groups : {interleaved:7.2f}s",
        f"SMP shuffle, split r/w groups   : {split:7.2f}s  (paper tuning)",
    ]
    save_report("ablation_io_tuning", "\n".join(lines))

    # The paper's tuning must never lose to the untuned settings.
    assert tuned <= shallow_queue * 1.02
    assert tuned <= small_requests * 1.02
    assert split <= interleaved * 1.05
