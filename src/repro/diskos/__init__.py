"""DiskOS: the Active Disk runtime — streams, disklets, memory budget."""

from .disklet import Disklet
from .memory import BASE_COMM_BUFFERS, BASE_MEMORY, DiskMemory, MemoryLayout
from .runtime import (
    DISKLET_RESTART_OVERHEAD,
    DiskletStage,
    disklet_restart_cost,
    phase_from_disklet,
    program_from_disklets,
    validate_disklet,
)
from .streams import SinkKind, StreamBufferProbe, StreamSpec

__all__ = [
    "Disklet", "StreamSpec", "SinkKind", "StreamBufferProbe",
    "DiskMemory", "MemoryLayout", "BASE_MEMORY", "BASE_COMM_BUFFERS",
    "DiskletStage", "validate_disklet", "phase_from_disklet",
    "program_from_disklets",
    "DISKLET_RESTART_OVERHEAD", "disklet_restart_cost",
]
