"""DiskOS runtime: from disklet declarations to executable programs.

The Active Disk programming model (paper Section 3) structures
applications as coarse-grain dataflow graphs of sandboxed disklets. This
module is the bridge between that model and the machine engines:

* :func:`validate_disklet` enforces the sandbox against a concrete
  memory layout — scratch must fit, peer streams require direct
  disk-to-disk communication support;
* :func:`phase_from_disklet` lowers one disklet stage (the disklet run
  by every disk over its input share, plus the receiving-side costs) to
  the architecture-neutral :class:`~repro.arch.program.Phase`;
* :func:`program_from_disklets` assembles a full
  :class:`~repro.arch.program.TaskProgram` from a pipeline of stages.

The custom-disklet example and the DiskOS tests build tasks this way;
the eight built-in tasks construct their phases directly (they predate
their disklet forms, like the paper's own C implementations did).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..arch.program import CostComponent, Phase, TaskProgram
from .disklet import Disklet
from .memory import MemoryLayout
from .streams import SinkKind

__all__ = ["DiskletStage", "validate_disklet", "phase_from_disklet",
           "program_from_disklets", "DISKLET_RESTART_OVERHEAD",
           "disklet_restart_cost"]

#: Seconds of on-disk CPU time DiskOS spends re-dispatching a crashed
#: disklet: tear down the sandbox, reload code + scratch from the
#: resident image and replay the stream cursor. Measured in the same
#: spirit as the paper's fixed OS costs — a small constant, large next
#: to a block's compute cost.
DISKLET_RESTART_OVERHEAD = 2e-3


def disklet_restart_cost(scratch_bytes: int = 0,
                         reload_rate: float = 100e6) -> float:
    """Restart cost for a disklet with ``scratch_bytes`` of state.

    The fixed :data:`DISKLET_RESTART_OVERHEAD` plus the time to rebuild
    the scratch area at ``reload_rate`` bytes/s from the on-media image.
    """
    if scratch_bytes < 0:
        raise ValueError(f"negative scratch size: {scratch_bytes}")
    if reload_rate <= 0:
        raise ValueError(f"reload rate must be positive, got {reload_rate}")
    return DISKLET_RESTART_OVERHEAD + scratch_bytes / reload_rate


@dataclass(frozen=True)
class DiskletStage:
    """One stage of a disklet pipeline.

    Attributes
    ----------
    disklet:
        The disklet every disk runs for this stage.
    read_bytes_total:
        Input-stream volume across all disks (read from local media).
    read_streams:
        Interleaved sequential input streams per disk.
    frontend_cpu_ns_per_byte:
        Host-side cost per byte the front-end receives from this stage.
    """

    disklet: Disklet
    read_bytes_total: int
    read_streams: int = 1
    frontend_cpu_ns_per_byte: float = 0.0


def validate_disklet(disklet: Disklet, layout: MemoryLayout,
                     direct_disk_to_disk: bool = True) -> None:
    """Enforce the DiskOS sandbox for one disklet.

    Raises ``ValueError`` when the disklet cannot be initialized: its
    scratch request exceeds the memory layout's scratch region, or it
    declares peer streams on a machine whose DiskOS was built without
    direct disk-to-disk support (streams are bound at initialization —
    a disklet cannot reroute them later).
    """
    if disklet.scratch_bytes > layout.scratch:
        raise ValueError(
            f"disklet {disklet.name!r}: scratch request "
            f"{disklet.scratch_bytes} exceeds the {layout.scratch}-byte "
            f"scratch region")
    if disklet.uses_peers and not direct_disk_to_disk:
        raise ValueError(
            f"disklet {disklet.name!r}: declares PEER output streams but "
            f"this DiskOS routes all communication through the front-end")


def phase_from_disklet(stage: DiskletStage,
                       name: Optional[str] = None) -> Phase:
    """Lower one disklet stage to an architecture-neutral phase."""
    disklet = stage.disklet
    recv = ()
    if disklet.recv_cpu_ns_per_byte > 0:
        recv = (CostComponent("recv", disklet.recv_cpu_ns_per_byte),)
    return Phase(
        name=name or disklet.name,
        read_bytes_total=stage.read_bytes_total,
        cpu=(CostComponent("disklet", disklet.cpu_ns_per_byte),)
        if disklet.cpu_ns_per_byte > 0 else (),
        shuffle_fraction=disklet.output_to(SinkKind.PEER),
        shuffle_fixed_per_worker=disklet.fixed_to(SinkKind.PEER),
        recv=recv,
        recv_write_fraction=disklet.recv_write_fraction,
        frontend_fraction=disklet.output_to(SinkKind.FRONTEND),
        frontend_fixed_per_worker=disklet.fixed_to(SinkKind.FRONTEND),
        frontend_cpu_ns_per_byte=stage.frontend_cpu_ns_per_byte,
        write_fraction=disklet.output_to(SinkKind.MEDIA),
        read_streams=stage.read_streams,
        scratch_bytes=disklet.scratch_bytes,
    )


def program_from_disklets(task: str, stages: Sequence[DiskletStage],
                          layout: Optional[MemoryLayout] = None,
                          direct_disk_to_disk: bool = True) -> TaskProgram:
    """Assemble a task program from a pipeline of disklet stages.

    When ``layout`` is given, every disklet is validated against the
    sandbox first.
    """
    if not stages:
        raise ValueError(f"{task}: a disklet program needs stages")
    if layout is not None:
        for stage in stages:
            validate_disklet(stage.disklet, layout, direct_disk_to_disk)
    phases = tuple(
        phase_from_disklet(stage, name=f"{stage.disklet.name}")
        for stage in stages
    )
    return TaskProgram(task=task, phases=phases)
