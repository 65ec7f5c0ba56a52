"""The filesystem seam the persistence stack writes through.

Every durability-relevant operation in the persistence stack — journal
appends (:mod:`repro.experiments.journal`), atomic artifact writes
(:mod:`repro.experiments.artifacts`), and therefore the service's
:class:`~repro.service.jobs.JobQueue` — goes through the small
:class:`IOLayer` protocol below instead of calling ``os`` directly.
The active layer is process-global and defaults to :data:`REAL_IO`,
which is a zero-policy pass-through; tests and the durability gauntlet
swap in a :class:`~repro.durability.faulty.FaultyIO` (seeded ENOSPC /
EIO / short-write / fsync-lie / rename-failure injection) or a
:class:`~repro.durability.crashpoints.CrashPointIO` (power-loss
simulation at an exact write/fsync/rename boundary) with
:func:`io_scope`::

    with io_scope(FaultyIO(plan)):
        runner.run(specs)          # every append/fsync can now fail

The seam is deliberately tiny — seven operations cover the whole
stack — and layers operate on *real* file objects, so handles obtained
under one layer remain valid under another (a recovery pass with
:data:`REAL_IO` can reopen files a faulty run left behind).

Reads are *not* part of the seam: before a crash the OS page cache
serves un-synced data to readers exactly like the real files do here,
and after a simulated crash the gauntlet materializes the durable
state back onto disk before anything reads it.
"""

from __future__ import annotations

import os
import secrets
from contextlib import contextmanager
from typing import BinaryIO, Tuple

__all__ = ["SimulatedCrash", "IOLayer", "RealIO", "REAL_IO",
           "current_io", "io_scope"]


class SimulatedCrash(BaseException):
    """Power was (simulatedly) cut at a write/fsync/rename boundary.

    Deliberately a :class:`BaseException`: a real power cut does not
    flow through ``except Exception:`` recovery handlers, so neither
    does its simulation — it unwinds straight out of the workload to
    the gauntlet driver.
    """

    def __init__(self, boundary: str):
        super().__init__(f"simulated power loss at boundary {boundary}")
        self.boundary = boundary


class IOLayer:
    """The durability-relevant filesystem operations, overridable.

    :class:`RealIO` documents the contract; fault layers wrap or
    replace individual operations but always leave real files and real
    file objects behind.
    """

    def open_append(self, path: str) -> BinaryIO:  # pragma: no cover
        raise NotImplementedError

    def mkstemp(self, directory: str, prefix: str,
                suffix: str) -> Tuple[BinaryIO, str]:  # pragma: no cover
        raise NotImplementedError

    def write(self, handle: BinaryIO, data: bytes) -> None:
        raise NotImplementedError  # pragma: no cover

    def fsync(self, handle: BinaryIO) -> None:  # pragma: no cover
        raise NotImplementedError

    def fsync_dir(self, directory: str) -> None:  # pragma: no cover
        raise NotImplementedError

    def replace(self, src: str, dst: str) -> None:  # pragma: no cover
        raise NotImplementedError


class RealIO(IOLayer):
    """The production layer: plain ``os`` calls, no policy."""

    def open_append(self, path: str) -> BinaryIO:
        """Open ``path`` for appending in binary mode, creating it."""
        return open(path, "ab")

    def mkstemp(self, directory: str, prefix: str,
                suffix: str) -> Tuple[BinaryIO, str]:
        """Create an exclusive temporary file; returns (handle, path).

        Its mode is 0666 less the umask, as ``open`` gives any new file,
        not ``tempfile.mkstemp``'s 0600.
        """
        while True:
            tmp = os.path.join(directory,
                               f"{prefix}{secrets.token_hex(4)}{suffix}")
            try:
                return open(tmp, "xb"), tmp
            except FileExistsError:
                continue

    def write(self, handle: BinaryIO, data: bytes) -> None:
        """Write ``data`` and flush it to the OS (not yet durable)."""
        handle.write(data)
        handle.flush()

    def fsync(self, handle: BinaryIO) -> None:
        """Make the file's *content* durable."""
        os.fsync(handle.fileno())

    def fsync_dir(self, directory: str) -> None:
        """Best-effort durability of directory entries (creates/renames)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def replace(self, src: str, dst: str) -> None:
        """Atomically rename ``src`` over ``dst``."""
        os.replace(src, dst)


#: The default, zero-policy layer.
REAL_IO = RealIO()

_ACTIVE: IOLayer = REAL_IO


def current_io() -> IOLayer:
    """The process-global active layer (``REAL_IO`` unless scoped)."""
    return _ACTIVE


@contextmanager
def io_scope(layer: IOLayer):
    """Route all seam operations through ``layer`` for the block.

    Scopes nest; leaving the block always restores the previous layer,
    even when the block exits via :class:`SimulatedCrash`.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = layer
    try:
        yield layer
    finally:
        _ACTIVE = previous
