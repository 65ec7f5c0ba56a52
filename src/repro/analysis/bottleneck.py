"""Closed-form bottleneck analysis of task programs.

Keeton et al. (the IDISK paper) evaluated intelligent-disk architectures
analytically, from technology trends and per-application bandwidth
demands. This module implements that style of model over the same task
programs the simulator executes: for each phase it computes how long
every resource class would need if it were the only constraint, and
takes the maximum — a pipeline-bottleneck estimate with no simulation.

Uses:

* instant what-if estimates (`analyze(config, "sort")` runs in
  microseconds, the simulator in seconds);
* an independent cross-check of the discrete-event simulator — the test
  suite asserts the two agree within tolerance and, more importantly,
  that they identify the *same bottleneck resource*, which is the
  paper's actual story.

The model is deliberately first-order: FIFO queueing, perfect pipeline
overlap within a phase, no convoy effects. The simulator exists because
those second-order effects matter at the margins; the analysis exists
because the first-order terms explain the figures.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from ..arch.config import (
    ActiveDiskConfig,
    ArchConfig,
    ClusterConfig,
    SMPConfig,
)
from ..arch.program import Phase, TaskProgram
from ..host.cpu import REFERENCE_MHZ
from ..interconnect.bus import FC_STARTUP_LATENCY
from ..tracegen.costs import CLUSTER_COPY_NS
from ..workloads import build_program

__all__ = ["PhaseEstimate", "AnalyticEstimate", "analyze",
           "analyze_program"]

MB = 1_000_000

#: Throughput retained by a drive whose request pattern interleaves
#: streams (read+write zones or more runs than cache segments): each
#: request pays positioning on top of its transfer.
INTERLEAVE_EFFICIENCY = 0.62


@dataclass(frozen=True)
class PhaseEstimate:
    """One phase: per-resource demands and the binding one."""

    name: str
    demands: Tuple[Tuple[str, float], ...]   # (resource, seconds)

    @property
    def seconds(self) -> float:
        return max(value for _, value in self.demands)

    @property
    def bottleneck(self) -> str:
        return max(self.demands, key=lambda kv: kv[1])[0]


@dataclass(frozen=True)
class AnalyticEstimate:
    """Whole-task estimate: sum of phase bottlenecks."""

    task: str
    arch: str
    phases: Tuple[PhaseEstimate, ...]

    @property
    def seconds(self) -> float:
        return sum(phase.seconds for phase in self.phases)

    @property
    def bottlenecks(self) -> Tuple[str, ...]:
        return tuple(phase.bottleneck for phase in self.phases)

    def render(self) -> str:
        lines = [f"{self.task} on {self.arch}: "
                 f"{self.seconds:.2f}s (analytic)"]
        for phase in self.phases:
            demands = ", ".join(f"{name}={value:.2f}s"
                                for name, value in phase.demands)
            lines.append(f"  {phase.name}: {phase.seconds:.2f}s "
                         f"[{phase.bottleneck}]  ({demands})")
        return "\n".join(lines)


def _fc_efficiency(transfer_bytes: int, loop_rate: float) -> float:
    """Fraction of the wire rate an FCP exchange of this size achieves."""
    wire = transfer_bytes / loop_rate
    return wire / (wire + FC_STARTUP_LATENCY)


def _media_rate(config: ArchConfig) -> float:
    """Capacity-weighted mean streaming rate of the configured drive."""
    spec = config.drive
    return (spec.media_rate_min + spec.media_rate_max) / 2.0


def _phase_volumes(phase: Phase, workers: int) -> Dict[str, float]:
    total = float(phase.read_bytes_total)
    shuffle = (total * phase.shuffle_fraction
               + workers * phase.shuffle_fixed_per_worker)
    frontend = (total * phase.frontend_fraction
                + workers * phase.frontend_fixed_per_worker)
    writes = (total * phase.write_fraction
              + shuffle * phase.recv_write_fraction)
    return {"read": total, "shuffle": shuffle, "frontend": frontend,
            "write": writes}


def _media_seconds(phase: Phase, volumes: Dict[str, float],
                   config: ArchConfig, disks: int) -> float:
    rate = _media_rate(config)
    interleaved = (volumes["write"] > 0.01 * volumes["read"]
                   and not phase.split_disk_groups)
    if phase.read_streams > config.drive.cache_segments:
        interleaved = True
    if interleaved:
        rate *= INTERLEAVE_EFFICIENCY
    return (volumes["read"] + volumes["write"]) / (rate * disks)


def _cpu_seconds(ns_per_byte: float, nbytes: float, mhz: float,
                 units: int) -> float:
    return ns_per_byte * 1e-9 * nbytes * (REFERENCE_MHZ / mhz) / units


def _estimate_active(config: ActiveDiskConfig,
                     phase: Phase) -> PhaseEstimate:
    workers = config.num_disks
    volumes = _phase_volumes(phase, workers)
    loop_rate = config.interconnect_rate / config.interconnect_loops
    efficiency = _fc_efficiency(config.io_request_bytes, loop_rate)
    fabric_rate = config.interconnect_rate * efficiency
    fc_bytes = (volumes["shuffle"] * (workers - 1) / max(1, workers)
                + volumes["frontend"])
    if not config.direct_disk_to_disk:
        fc_bytes += volumes["shuffle"] * (workers - 1) / max(1, workers)
    worker_ns = (phase.cpu_total_ns_per_byte
                 + phase.shuffle_fraction * phase.recv_total_ns_per_byte)
    demands = [
        ("disk_media", _media_seconds(phase, volumes, config, workers)),
        ("disk_cpu", _cpu_seconds(worker_ns, volumes["read"],
                                  config.disk_cpu_mhz, workers)),
        ("interconnect", fc_bytes / fabric_rate),
        ("frontend_link",
         volumes["frontend"] / min(config.frontend_pci_rate, fabric_rate)),
    ]
    if not config.direct_disk_to_disk and volumes["shuffle"] > 0:
        relay = 2 * volumes["shuffle"] * (workers - 1) / max(1, workers)
        demands.append(("frontend_relay", max(
            relay / config.frontend_pci_rate,
            _cpu_seconds(50.0, relay / 2, config.frontend_cpu_mhz, 1))))
    return PhaseEstimate(name=phase.name, demands=tuple(demands))


def _estimate_cluster(config: ClusterConfig,
                      phase: Phase) -> PhaseEstimate:
    workers = config.num_nodes
    volumes = _phase_volumes(phase, workers)
    link = config.ethernet.host_link_rate
    net_bytes = volumes["shuffle"] * (workers - 1) / max(1, workers)
    worker_ns = (phase.cpu_total_ns_per_byte
                 + phase.shuffle_fraction * phase.recv_total_ns_per_byte
                 + CLUSTER_COPY_NS * (1 + 2 * phase.shuffle_fraction
                                      + phase.write_fraction))
    demands = [
        ("disk_media", _media_seconds(phase, volumes, config, workers)),
        ("node_cpu", _cpu_seconds(worker_ns, volumes["read"],
                                  config.node_cpu_mhz, workers)),
        ("node_links", net_bytes / (link * max(1, workers))),
        ("frontend_link", volumes["frontend"] / link),
    ]
    return PhaseEstimate(name=phase.name, demands=tuple(demands))


def _estimate_smp(config: SMPConfig, phase: Phase) -> PhaseEstimate:
    workers = config.num_cpus
    volumes = _phase_volumes(phase, workers)
    loop_rate = (config.io_interconnect_rate
                 / config.io_interconnect_loops)
    efficiency = _fc_efficiency(config.stripe_chunk_bytes, loop_rate)
    fabric_rate = config.io_interconnect_rate * efficiency
    # Every byte to or from the disk farm crosses the shared loop.
    fc_bytes = volumes["read"] + volumes["write"]
    worker_ns = (phase.cpu_total_ns_per_byte
                 + phase.shuffle_fraction * phase.recv_total_ns_per_byte)
    demands = [
        ("disk_media", _media_seconds(phase, volumes, config,
                                      config.num_disks)),
        ("smp_cpu", _cpu_seconds(worker_ns, volumes["read"],
                                 config.cpu_mhz, workers)),
        ("io_interconnect", fc_bytes / fabric_rate),
        ("numa", (volumes["read"] + volumes["shuffle"])
         / (config.numa_link_rate * config.num_boards)),
    ]
    return PhaseEstimate(name=phase.name, demands=tuple(demands))


def analyze_program(config: ArchConfig,
                    program: TaskProgram) -> AnalyticEstimate:
    """Bottleneck analysis of an already-built program."""
    if isinstance(config, ActiveDiskConfig):
        estimator = _estimate_active
    elif isinstance(config, ClusterConfig):
        estimator = _estimate_cluster
    elif isinstance(config, SMPConfig):
        estimator = _estimate_smp
    else:
        raise TypeError(f"unknown config type {type(config).__name__}")
    phases = tuple(estimator(config, phase) for phase in program.phases)
    return AnalyticEstimate(task=program.task, arch=config.arch,
                            phases=phases)


def analyze(config: ArchConfig, task: str,
            scale: float = 1.0) -> AnalyticEstimate:
    """Build ``task``'s program for ``config`` and analyze it."""
    return analyze_program(config, build_program(task, config, scale))
