"""Watch the bottleneck move: resource timelines for a sort run.

Uses the :mod:`repro.telemetry` hub to sample the FC loop, disk media
and disk CPUs every 200 simulated milliseconds while an Active Disk farm
sorts, and renders the sampled timelines as terminal sparklines — the
Figure 3 story as a time series: the repartitioning phase saturates CPUs
and the loop, then the merge phase leaves only the platters busy.

The same hub records every seek/transfer/arbitration span, so the run
also drops a Chrome trace you can open in https://ui.perfetto.dev to
zoom into any individual request.

Run:  python examples/utilization_timeline.py [disks]
"""

import sys

from repro.arch import ActiveDiskConfig, build_machine
from repro.sim import Simulator
from repro.telemetry import Telemetry, sparkline, write_artifacts
from repro.workloads import build_program

SCALE = 1 / 32
INTERVAL = 0.2


def rate_probe(read_total, capacity_per_second, sim):
    """Instantaneous utilization from a cumulative byte counter."""
    state = {"time": 0.0, "bytes": 0.0}

    def probe():
        now, total = sim.now, read_total()
        dt = now - state["time"]
        db = total - state["bytes"]
        state["time"], state["bytes"] = now, total
        return min(1.0, db / dt / capacity_per_second) if dt > 0 else 0.0

    return probe


def main(argv):
    disks = int(argv[0]) if argv else 64
    config = ActiveDiskConfig(num_disks=disks)
    sim = Simulator()
    # Install telemetry *before* building the machine so every component
    # wires up its probes; the machine adds its own standard set.
    tel = Telemetry(sample_interval=INTERVAL).install(sim)
    machine = build_machine(sim, config)

    media_rate = 18e6 * disks   # ~mean streaming rate x farm size
    tel.add_probe("fc loop ", rate_probe(machine.fabric.bytes_moved,
                                         config.interconnect_rate, sim))
    tel.add_probe("media   ", rate_probe(
        lambda: sum(n.drive.bytes_read + n.drive.bytes_written
                    for n in machine.nodes),
        media_rate, sim))
    tel.add_probe("disk cpu", lambda: sum(
        n.cpu.utilization() for n in machine.nodes) / disks)

    result = machine.run(build_program("sort", config, SCALE))

    # Every probe sample landed in the span recorder's counter track;
    # pull the three custom timelines back out and render them.
    timelines = {}
    for sample in tel.spans.counters:
        if sample.name in ("fc loop ", "media   ", "disk cpu"):
            timelines.setdefault(sample.name, []).append(
                sample.values["value"])
    p1, p2 = result.phases
    width = min(64, max(len(v) for v in timelines.values()))
    boundary = int(width * p1.elapsed / result.elapsed)

    print(f"sort on {disks} Active Disks (scale {SCALE:g}): "
          f"{result.elapsed:.1f}s total "
          f"(P1 {p1.elapsed:.1f}s, P2 {p2.elapsed:.1f}s)\n")
    for name, values in timelines.items():
        print(f"{name}  |{sparkline(values, width)}|")
    print(" " * 10 + "^" * boundary + "|" + "-" * (width - boundary - 1))
    print(" " * 10 + "P1: partition+shuffle+runs".ljust(boundary) + " P2: merge")
    print()
    print("Read the strips: during P1 the loop and CPUs burn (at 128 "
          "disks the loop pins at '@' while CPUs idle — Figure 3's "
          "story); P2 drops to a media-only workload.")
    print()
    paths = write_artifacts(tel, "reports", prefix=f"timeline-{disks}")
    print(f"Full span trace: {paths['trace']} "
          f"({len(tel.spans.spans)} spans — open in ui.perfetto.dev)")


if __name__ == "__main__":
    main(sys.argv[1:])
