"""Host-time attribution for the traced benchmark pass.

Three instruments, all owned by the benchmark (nothing under ``src/``
changes):

* :class:`LayerProfile` runs :mod:`cProfile` over a pass and charges
  every function's self time to the ``repro.<layer>`` package that owns
  it. Time spent in code outside the repository (the standard library,
  C builtins) is charged to the repository caller that reached it,
  split by the per-caller times cProfile records, so ``json.dumps``
  called from the journal counts as ``experiments`` and the ``select``
  under the worker pool counts as ``experiments`` too.
* :class:`Spans` records ``(name, start, end, parent)`` around the
  benchmark's own calls into public functions. Spans stay in memory and
  are written out once, at the end of the pass.
* :class:`CountingIO` is a :class:`~repro.durability.io_layer.RealIO`
  that counts fsyncs, their host time and the bytes written through the
  durability seam; install it with ``io_scope``.
"""

from __future__ import annotations

import cProfile
import json
import os
import pstats
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: Layers reported one by one; every other package of ``repro`` and all
#: unattributable time is reported together as ``other``.
LAYERS = ("sim", "disk", "interconnect", "net", "host", "diskos", "arch",
          "workloads", "tracegen", "analysis", "traffic", "telemetry",
          "experiments", "durability", "service")

_PACKAGE_MARK = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> Optional[str]:
    """``repro`` layer owning ``filename``; ``other`` for repository code
    outside the listed layers; None for code outside the repository."""
    index = filename.rfind(_PACKAGE_MARK)
    if index < 0:
        # The benchmark's own frames are repository code, but no layer.
        return "other" if os.sep + "e2ebench" + os.sep in filename else None
    rest = filename[index + len(_PACKAGE_MARK):]
    package = rest.split(os.sep, 1)[0]
    if package.endswith(".py"):
        return "other"
    return package if package in LAYERS else "other"


def attribute(stats: Dict) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats.stats`` mapping.

    ``stats`` maps ``(file, line, name)`` to ``(cc, nc, tt, ct,
    callers)``, where ``callers`` maps each caller to the callee's
    ``(cc, nc, tt, ct)`` for calls made from that caller. A function
    outside the repository passes its self time to its callers in
    proportion to the per-caller self times; a caller that is itself
    outside the repository passes it on in proportion to its own
    per-caller cumulative times, until it reaches repository code.
    """
    owner = {key: layer_of(key[0]) for key in stats}
    shares: Dict[Tuple, Dict[str, float]] = {}

    def share_of(key, depth: int = 0) -> Dict[str, float]:
        """Where time spent inside ``key``'s subtree came from."""
        if owner.get(key) is not None:
            return {owner[key]: 1.0}
        if key in shares:
            return shares[key]
        shares[key] = {"other": 1.0}        # cycle guard
        if depth > 50 or key not in stats:
            return shares[key]
        callers = stats[key][4]
        total = sum(entry[3] for entry in callers.values())
        if total <= 0:
            return shares[key]
        mixed: Dict[str, float] = {}
        for caller, entry in callers.items():
            for layer, frac in share_of(caller, depth + 1).items():
                mixed[layer] = mixed.get(layer, 0.0) + frac * entry[3] / total
        shares[key] = mixed
        return mixed

    out = {layer: 0.0 for layer in LAYERS + ("other",)}
    for key, (_, _, tt, _, callers) in stats.items():
        if tt <= 0:
            continue
        layer = owner[key]
        if layer is not None:
            out[layer] += tt
            continue
        via = sum(entry[2] for entry in callers.values())
        if via <= 0:
            out["other"] += tt
            continue
        for caller, entry in callers.items():
            for target, frac in share_of(caller).items():
                out[target] += tt * frac * entry[2] / via
    return out


class LayerProfile:
    """cProfile over a block, folded into self seconds per layer."""

    def __init__(self):
        self._profile = cProfile.Profile()
        self.self_s: Dict[str, float] = {}
        self.stats: Dict = {}

    def __enter__(self):
        self._profile.enable()
        return self

    def __exit__(self, *exc):
        self._profile.disable()
        self.stats = pstats.Stats(self._profile).stats
        self.self_s = attribute(self.stats)
        return False

    def cumulative_s(self, path_suffix: str, function: str) -> float:
        """Cumulative seconds inside ``function`` of the file ending in
        ``path_suffix``, over every call the profile saw."""
        return sum(entry[3] for (path, _, name), entry in self.stats.items()
                   if name == function and path.endswith(path_suffix))


class Spans:
    """In-memory spans around the benchmark's calls into the program."""

    def __init__(self):
        self.records: List[Dict] = []
        self._stack: List[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.records)
        record = {"name": name, "start": time.perf_counter(), "end": None,
                  "parent": parent}
        self.records.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def total(self, name: str) -> float:
        return sum(r["end"] - r["start"] for r in self.records
                   if r["name"] == name and r["end"] is not None)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.records, handle)


def counting_io():
    """A fresh RealIO that counts what passes through the seam."""
    from repro.durability.io_layer import RealIO

    class CountingIO(RealIO):
        def __init__(self):
            self.fsyncs = 0
            self.fsync_s = 0.0
            self.write_bytes = 0
            self.journal_appends = 0
            self.journal_bytes = 0

        def write(self, handle, data):
            super().write(handle, data)
            self.write_bytes += len(data)
            if str(getattr(handle, "name", "")).endswith(".journal.jsonl"):
                self.journal_appends += 1
                self.journal_bytes += len(data)

        def fsync(self, handle):
            began = time.perf_counter()
            super().fsync(handle)
            self.fsync_s += time.perf_counter() - began
            self.fsyncs += 1

        def fsync_dir(self, directory):
            began = time.perf_counter()
            super().fsync_dir(directory)
            self.fsync_s += time.perf_counter() - began
            self.fsyncs += 1

    return CountingIO()
