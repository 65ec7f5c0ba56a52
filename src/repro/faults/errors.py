"""Exceptions raised by injected faults.

Transient faults (bus glitches, packet loss, media errors the drive can
re-read around) are *recovered inside the owning component* and never
surface as exceptions — they cost simulated time and bump ``faults.*``
counters. Only a permanent fault escapes: :class:`DriveFailed`
propagates to the architecture models, which degrade gracefully
(survivors re-scan the lost partition, or the disklet is re-dispatched).
"""

from __future__ import annotations

__all__ = ["FaultError", "DriveFailed"]


class FaultError(Exception):
    """Base class for every injected-fault exception."""


class DriveFailed(FaultError):
    """The whole spindle is gone; every request to it fails."""

    def __init__(self, drive: str):
        super().__init__(f"drive {drive} failed")
        self.drive = drive
