"""User-controllable disk striping (the SMP's raw-disk striping library).

The SMP configurations stripe each file over all disks with a 64 KB chunk
per disk; each 256 KB application request therefore fans out to four
consecutive drives (paper, Section 3). :class:`StripedVolume` maps a byte
offset in the logical volume to (drive, LBN) pairs and issues the chunk
requests, completing when the slowest chunk lands.

The volume can be restricted to a subset of drives — the paper partitions
drives into separate read and write groups for sort and join on the SMP
(as in NOW-sort) to avoid interleaving read and write seek patterns.
"""

from __future__ import annotations

from typing import List, Sequence

from ..disk import DiskDrive
from ..sim import AllOf, Event, Simulator

__all__ = ["StripedVolume"]


class StripedVolume:
    """A logical volume striped over ``drives`` in ``chunk_bytes`` units."""

    def __init__(self, sim: Simulator, drives: Sequence[DiskDrive],
                 chunk_bytes: int = 64 * 1024, base_lbn: int = 0):
        if not drives:
            raise ValueError("StripedVolume needs at least one drive")
        if chunk_bytes <= 0:
            raise ValueError(f"chunk size must be positive, got {chunk_bytes}")
        self.sim = sim
        self.drives = list(drives)
        self.chunk_bytes = chunk_bytes
        self.base_lbn = base_lbn
        sector = drives[0].spec.sector_bytes
        if chunk_bytes % sector:
            raise ValueError(
                f"chunk size {chunk_bytes} not a multiple of the "
                f"sector size {sector}")
        self.chunk_sectors = chunk_bytes // sector

    @property
    def width(self) -> int:
        return len(self.drives)

    def capacity_bytes(self) -> int:
        per_drive = min(d.geometry.total_sectors for d in self.drives)
        per_drive -= self.base_lbn
        return per_drive * self.drives[0].spec.sector_bytes * self.width

    def _locate(self, offset: int) -> tuple:
        """Map a volume byte offset to ``(drive_index, lbn)``."""
        if offset % self.chunk_bytes:
            raise ValueError(
                f"offset {offset} not chunk-aligned ({self.chunk_bytes})")
        chunk_index = offset // self.chunk_bytes
        drive_index = chunk_index % self.width
        stripe_row = chunk_index // self.width
        lbn = self.base_lbn + stripe_row * self.chunk_sectors
        return drive_index, lbn

    def submit(self, op: str, offset: int, nbytes: int) -> Event:
        """Issue one logical request as per-drive chunk requests.

        The returned event fires when every chunk has completed.
        """
        if nbytes <= 0:
            raise ValueError(f"request size must be positive, got {nbytes}")
        chunk_events: List[Event] = []
        remaining = nbytes
        cursor = offset
        while remaining > 0:
            span = min(remaining, self.chunk_bytes - cursor % self.chunk_bytes)
            drive_index, lbn = self._locate(cursor - cursor % self.chunk_bytes)
            within = (cursor % self.chunk_bytes) // 512
            drive = self.drives[drive_index]
            chunk_events.append(drive.submit(op, lbn + within, span))
            cursor += span
            remaining -= span
        return AllOf(self.sim, chunk_events)

    def read(self, offset: int, nbytes: int) -> Event:
        return self.submit("read", offset, nbytes)

    def write(self, offset: int, nbytes: int) -> Event:
        return self.submit("write", offset, nbytes)
