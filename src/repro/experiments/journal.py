"""The sweep journal: an append-only JSONL record of sweep progress.

Every cell of a sweep moves through the state machine of
:mod:`repro.experiments.lifecycle`, and the journal records each
transition as one JSON line, flushed and fsync'd at the moment it
happens. Because the file is append-only and every line is
self-contained, a journal is valid after *any* crash: a torn final line
(the write the crash interrupted) is detected and ignored on load, and
the fold over the surviving lines reconstructs the exact sweep state.

``pending`` records carry the cell's full :class:`CellSpec` encoding and
a hash of the configuration it implies, so a journal alone is enough to
resume a sweep (``repro resume <journal>``): completed cells whose
config hash still matches are reloaded from their cached
:class:`RunResult` (bit-identical — see :mod:`.artifacts`), everything
else is re-run. ``sweep`` records carry driver metadata (figure name,
sizes, scale) so the CLI can re-dispatch the original driver.

Journals written by the distributed sweep service (``repro serve``, see
``docs/SERVICE.md``) additionally attribute cell transitions to the
worker that ran them (``worker=`` on ``running``/``done`` records) and
interleave ``service`` event records — heartbeat losses, reassignments
— which fold into :attr:`SweepJournal.service_events` and the
per-worker queries below. A service journal is still a plain sweep
journal: ``repro resume`` and ``repro doctor --journal`` both accept it.

The append-only mechanics (torn-tail tolerance, fsync'd appends) live
in :class:`AppendLog` so other persistent logs — the service's
:class:`~repro.service.jobs.JobQueue` — share the exact crash-safety
contract instead of re-implementing it. Those mechanics are
gauntlet-verified (``repro crashtest``, ``docs/DURABILITY.md``) and
harden three real failure modes:

* the parent directory is fsync'd when the file is first created, so
  a crash right after the first append cannot lose the whole journal
  to a volatile directory entry;
* every record carries a CRC32 over its canonical JSON (``crc``
  field), verified on load — a mid-file bit-flip that still parses as
  JSON is a hard error naming the file and line instead of being
  silently folded; records from older, CRC-less journals are still
  accepted;
* an append that fails with ``EIO`` is retried once on a fresh handle
  after a clean abort (any torn fragment trimmed), and an append that
  cannot be completed raises :class:`JournalWriteError` with the file
  in a well-formed state — never a half-applied record. A complete
  record whose *fsync* keeps failing is left in place (it is valid,
  just not guaranteed durable) and the error says so.

All file operations go through the pluggable IO seam
(:mod:`repro.durability.io_layer`), which is how the durability
gauntlet injects ENOSPC/EIO/short writes/fsync lies and enumerates
crash points through this exact code path.
"""

from __future__ import annotations

import errno
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..durability.io_layer import current_io

__all__ = ["AppendLog", "SweepJournal", "CellState", "STATUSES",
           "JournalWriteError", "record_crc"]

#: Legal cell statuses, in lifecycle order.
STATUSES = ("pending", "running", "done", "failed", "quarantined")


class JournalWriteError(OSError):
    """An append could not be applied; the journal is still well-formed.

    Raised after the clean-abort path ran: the handle is closed and
    any torn fragment of the failed record has been trimmed, so the
    file never holds a half-applied record. The original ``OSError``
    is chained as ``__cause__``.
    """


def record_crc(record: Dict) -> int:
    """CRC32 of a record's canonical JSON (sorted keys, no ``crc``).

    :meth:`AppendLog._append` writes keys in their given order, so a
    reloaded result keeps the order of its ``busy`` and ``extras`` keys
    (Figure 3's rows follow it). The checksum sorts them, and
    recomputing it over a loaded record is stable: ``json`` round-trips
    floats via ``repr`` and re-escapes strings identically.
    """
    payload = {key: value for key, value in record.items() if key != "crc"}
    return zlib.crc32(json.dumps(payload, sort_keys=True).encode("utf-8"))


class AppendLog:
    """An append-only JSONL file tolerating a crash-torn final line.

    Subclasses override :meth:`_fold` to reconstruct state from the
    record stream. Appends are flushed and fsync'd one self-contained
    line at a time, so after any crash the file is either well-formed
    or torn only in its final line — which :meth:`load` detects,
    counts in ``torn_lines``, and ignores, and which the next append
    trims so new records never concatenate onto the fragment.

    Every written record carries a ``crc`` field (CRC32 of the rest of
    the line, see :func:`record_crc`) that :meth:`load` verifies;
    records without one (pre-CRC journals) are accepted unchecked. The
    parent directory is fsync'd when the file is first created, and a
    failed append aborts cleanly — see :class:`JournalWriteError`.
    ``write_retries`` appends are retried on ``EIO`` (default one).
    """

    def __init__(self, path: str, write_retries: int = 1):
        self.path = os.fspath(path)
        self.torn_lines = 0
        self.write_retries = write_retries
        self._handle = None

    # ------------------------------------------------------------- load
    @classmethod
    def load(cls, path: str):
        """Open ``path``, replaying any existing records.

        Unparseable lines are tolerated only at the very end of the file
        (a write torn by a crash); garbage earlier in the journal raises,
        because it means the file is not one of ours.
        """
        log = cls(path)
        if os.path.exists(log.path):
            with open(log.path, "r", encoding="utf-8") as handle:
                lines = handle.read().split("\n")
            # A well-formed journal ends with "\n", so the final split
            # element is empty; anything else is a torn tail.
            for index, line in enumerate(lines):
                if not line.strip():
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    if index >= len(lines) - 2:
                        log.torn_lines += 1
                        continue
                    raise ValueError(
                        f"{log.path}:{index + 1}: corrupt journal "
                        f"record (not at end of file)")
                crc = record.pop("crc", None) if isinstance(record, dict) \
                    else None
                if crc is not None and crc != record_crc(record):
                    # A line that parses but fails its checksum is a
                    # bit-flip inside valid JSON — always a hard error,
                    # even on the final line: a torn write can never
                    # produce parseable JSON with a present-but-wrong
                    # CRC, so this is corruption, not a crash artifact.
                    raise ValueError(
                        f"{log.path}:{index + 1}: journal record CRC "
                        f"mismatch (stored {crc}, computed "
                        f"{record_crc(record)})")
                log._fold(record)
        return log

    def _fold(self, record: Dict) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ----------------------------------------------------------- append
    def _trim_torn_tail(self) -> None:
        """Drop a partial final line (a crash-torn write) before appending.

        Load already ignores the torn fragment; trimming it keeps the
        next appended record from concatenating onto it.
        """
        try:
            if os.path.getsize(self.path) == 0:
                return
        except OSError:
            return
        with open(self.path, "rb+") as handle:
            data = handle.read()
            if data.endswith(b"\n"):
                return
            handle.truncate(data.rfind(b"\n") + 1)

    def _ensure_open(self, io) -> None:
        if self._handle is not None:
            return
        directory = os.path.dirname(self.path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        self._trim_torn_tail()
        created = not os.path.exists(self.path)
        self._handle = io.open_append(self.path)
        if created:
            # Make the new directory entry durable too: without this a
            # crash can lose the whole "durable" journal, fsync'd
            # records and all (gauntlet-verified, docs/DURABILITY.md).
            io.fsync_dir(directory or ".")

    def _abort(self, trim: bool = True) -> None:
        """Clean abort of a failed append: close, and trim any fragment."""
        if self._handle is not None:
            try:
                self._handle.close()
            except OSError:
                pass
            self._handle = None
        if trim:
            try:
                self._trim_torn_tail()
            except OSError:
                pass

    def _append(self, record: Dict) -> None:
        stamped = dict(record)
        stamped["crc"] = record_crc(record)
        # One write call per record: appends from concurrent processes
        # (coordinator + a late worker flush) land as whole lines.
        line = (json.dumps(stamped) + "\n").encode("utf-8")
        io = current_io()
        attempts = max(1, self.write_retries + 1)
        # Phase 1: land the complete line. A failed try aborts cleanly
        # (any torn fragment trimmed) so a retry — or a later appender —
        # never concatenates onto half a record.
        for attempt in range(attempts):
            try:
                self._ensure_open(io)
                io.write(self._handle, line)
                break
            except OSError as error:
                self._abort()
                if error.errno == errno.EIO and attempt + 1 < attempts:
                    continue
                raise JournalWriteError(
                    f"{self.path}: append failed ({error}); journal "
                    f"left well-formed") from error
        # Phase 2: make it durable. The line is complete on disk, so a
        # retry must only re-fsync on a fresh handle — rewriting would
        # duplicate the record.
        for attempt in range(attempts):
            try:
                self._ensure_open(io)
                io.fsync(self._handle)
                break
            except OSError as error:
                self._abort(trim=False)
                if error.errno == errno.EIO and attempt + 1 < attempts:
                    continue
                raise JournalWriteError(
                    f"{self.path}: fsync failed ({error}); the record "
                    f"is complete but not guaranteed durable") from error
        self._fold(record)

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclass
class CellState:
    """Folded state of one cell after replaying its journal records."""

    key: str
    status: str = "pending"
    spec: Optional[Dict] = None
    config_hash: Optional[str] = None
    attempt: int = 0
    result: Optional[Dict] = None
    error: Optional[str] = None
    violation: Optional[Dict] = None
    oom: bool = False
    worker: Optional[str] = None
    failures: List[str] = field(default_factory=list)


class SweepJournal(AppendLog):
    """Append-only JSONL journal of one sweep's cell lifecycle."""

    def __init__(self, path: str):
        super().__init__(path)
        self.meta: Dict = {}
        self.cells: Dict[str, CellState] = {}
        self.service_events: List[Dict] = []

    def _fold(self, record: Dict) -> None:
        kind = record.get("kind")
        if kind == "sweep":
            self.meta.update(record.get("meta", {}))
            return
        if kind == "service":
            event = dict(record)
            event.pop("kind", None)
            self.service_events.append(event)
            return
        if kind != "cell":
            return  # unknown kinds are forward-compatible noise
        key = record["key"]
        status = record.get("status")
        if status not in STATUSES:
            raise ValueError(f"{self.path}: bad status {status!r} "
                             f"for cell {key!r}")
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = CellState(key=key)
        cell.status = status
        if record.get("spec") is not None:
            cell.spec = record["spec"]
        if record.get("config_hash") is not None:
            cell.config_hash = record["config_hash"]
        if record.get("attempt") is not None:
            cell.attempt = record["attempt"]
        if record.get("worker") is not None:
            cell.worker = record["worker"]
        if status == "done":
            cell.result = record.get("result")
            cell.error = None
            cell.violation = None
            cell.oom = False
        elif status in ("failed", "quarantined"):
            cell.error = record.get("error")
            if record.get("violation") is not None:
                cell.violation = record["violation"]
            if record.get("oom"):
                cell.oom = True
            if record.get("error"):
                cell.failures.append(record["error"])

    # ----------------------------------------------------------- append
    def note_sweep(self, meta: Dict) -> None:
        """Record driver metadata (figure, sizes, scale) for resume."""
        self._append({"kind": "sweep", "meta": meta})

    def note_cell(self, key: str, status: str, *, spec: Optional[Dict] = None,
                  config_hash: Optional[str] = None,
                  attempt: Optional[int] = None,
                  result: Optional[Dict] = None,
                  error: Optional[str] = None,
                  violation: Optional[Dict] = None,
                  oom: Optional[bool] = None,
                  worker: Optional[str] = None) -> None:
        if status not in STATUSES:
            raise ValueError(f"bad status {status!r}")
        record: Dict = {"kind": "cell", "key": key, "status": status}
        if spec is not None:
            record["spec"] = spec
        if config_hash is not None:
            record["config_hash"] = config_hash
        if attempt is not None:
            record["attempt"] = attempt
        if result is not None:
            record["result"] = result
        if error is not None:
            record["error"] = error
        if violation is not None:
            record["violation"] = violation
        if oom:
            record["oom"] = True
        if worker is not None:
            record["worker"] = worker
        self._append(record)

    def note_service(self, event: str, **fields) -> None:
        """Record one service event (``heartbeat_loss``, ``reassign``...).

        Service events are forward-compatible noise to pre-service
        readers of the journal; see ``docs/SERVICE.md`` for the event
        vocabulary.
        """
        record = {"kind": "service", "event": event}
        record.update(fields)
        self._append(record)

    # ---------------------------------------------------------- queries
    def done(self) -> Dict[str, CellState]:
        return {key: cell for key, cell in self.cells.items()
                if cell.status == "done"}

    def incomplete(self) -> Dict[str, CellState]:
        """Cells not terminally done: pending/running/failed/quarantined.

        ``running`` means the recording process died mid-cell; on resume
        those cells are simply re-run.
        """
        return {key: cell for key, cell in self.cells.items()
                if cell.status != "done"}

    def violated(self) -> Dict[str, CellState]:
        """Cells whose latest failure was an invariant violation."""
        return {key: cell for key, cell in self.cells.items()
                if cell.violation is not None}

    def oom_cells(self) -> Dict[str, CellState]:
        """Cells quarantined for busting their per-cell memory budget."""
        return {key: cell for key, cell in self.cells.items()
                if cell.oom}

    def counts(self) -> Dict[str, int]:
        out = {status: 0 for status in STATUSES}
        for cell in self.cells.values():
            out[cell.status] += 1
        return out

    # ------------------------------------------------- service queries
    def worker_cells(self) -> Dict[str, int]:
        """Completed cells attributed to each service worker."""
        out: Dict[str, int] = {}
        for cell in self.cells.values():
            if cell.status == "done" and cell.worker is not None:
                out[cell.worker] = out.get(cell.worker, 0) + 1
        return out

    def service_event_counts(self) -> Dict[str, int]:
        """Service events by name (``reassign``, ``heartbeat_loss``...)."""
        out: Dict[str, int] = {}
        for event in self.service_events:
            name = event.get("event", "unknown")
            out[name] = out.get(name, 0) + 1
        return out

    def reassignments(self) -> int:
        return self.service_event_counts().get("reassign", 0)

    def heartbeat_losses(self) -> int:
        return self.service_event_counts().get("heartbeat_loss", 0)

    def duplicates_dropped(self) -> int:
        """Late/duplicated results the coordinator refused to re-apply."""
        return self.service_event_counts().get("duplicate_dropped", 0)

    def epoch_fences(self) -> int:
        """Frames dropped for carrying a superseded registration epoch."""
        return self.service_event_counts().get("epoch_fence", 0)

    def rejected_submits(self) -> int:
        """Submits refused by admission control while this job ran."""
        return self.service_event_counts().get("submit_rejected", 0)

    def reconnects(self) -> int:
        """Workers that re-registered under a fresh epoch."""
        return (self.service_event_counts().get("worker_reconnect", 0)
                + self.service_event_counts().get("worker_superseded", 0))

    def summary(self) -> str:
        counts = self.counts()
        parts = [f"{counts[s]} {s}" for s in STATUSES if counts[s]]
        return f"{self.path}: " + (", ".join(parts) or "empty")
