"""Sweep requests: the unit of work a client submits to the service.

A :class:`SweepRequest` names a figure grid the way ``repro sweep``
does — figure, farm sizes, task subset, scale — and knows how to

* **expand** itself into the exact :class:`CellSpec` list the figure
  driver would run (:meth:`cells` captures the driver's own grid, so
  the service can never drift from the inline path), and
* **finalize** a completed journal back into the figure's artifacts
  (:meth:`finalize` replays the driver over the journal — every cell a
  cache hit — and writes ``<figure>.txt`` / ``<figure>.csv`` /
  ``MANIFEST.json`` exactly as a single-process ``repro sweep`` would).

Because both ends go through the unmodified drivers, a sweep run
through ``repro serve`` + ``repro submit`` is byte-identical to one run
inline.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..experiments.artifacts import atomic_write_text, write_manifest
from ..experiments.harness import SweepRunner
from ..experiments.registry import (
    FIGURE_DRIVERS,
    FigureDriver,
    declared_cells,
)
from ..experiments.runner import DEFAULT_SCALE
from ..experiments.workers import CellSpec
from ..traffic.driver import (
    DEFAULT_TRAFFIC_SIZES,
    run_traffic_figure,
)
from ..traffic.report import traffic_rows
from ..workloads import registered_tasks

__all__ = ["FigureDriver", "FIGURES", "SweepRequest", "write_figure"]


#: Figure sweeps the service (and ``repro sweep``) knows how to run: the
#: registry's five figure drivers plus the traffic saturation curve,
#: which stays here because ``repro.traffic`` imports the registry's
#: package.
FIGURES: Dict[str, FigureDriver] = {
    **FIGURE_DRIVERS,
    "traffic": FigureDriver(run_traffic_figure, traffic_rows, True,
                            DEFAULT_TRAFFIC_SIZES),
}


def write_figure(figure: str, result, out_dir: str) -> str:
    """Write ``<figure>.txt`` / ``<figure>.csv`` and refresh
    ``MANIFEST.json`` in ``out_dir``, atomically; returns the text."""
    text, csv = FIGURES[figure].render(result)
    for suffix, content in ((".txt", text), (".csv", csv)):
        atomic_write_text(os.path.join(out_dir, figure + suffix), content)
    write_manifest(out_dir)
    return text.rstrip("\n")


@dataclass(frozen=True)
class SweepRequest:
    """One figure sweep, as submitted to ``repro serve``."""

    figure: str
    sizes: Optional[Tuple[int, ...]] = None
    tasks: Optional[Tuple[str, ...]] = None
    scale: float = DEFAULT_SCALE
    out_dir: str = "results"

    def __post_init__(self):
        if self.figure not in FIGURES:
            raise ValueError(f"unknown figure {self.figure!r}; "
                             f"pick one of {tuple(sorted(FIGURES))}")
        if not 0 < self.scale <= 1:
            raise ValueError(f"scale must be in (0, 1], got {self.scale!r}")
        if self.tasks:
            unknown = set(self.tasks) - set(registered_tasks())
            if unknown:
                raise ValueError(
                    f"unknown tasks: {', '.join(sorted(unknown))}")
        if self.sizes is not None:
            object.__setattr__(self, "sizes", tuple(self.sizes))
        if self.tasks is not None:
            object.__setattr__(self, "tasks", tuple(self.tasks))

    # -------------------------------------------------------- round-trip
    def to_dict(self) -> Dict:
        out: Dict = {"figure": self.figure, "scale": self.scale,
                     "out_dir": self.out_dir}
        if self.sizes is not None:
            out["sizes"] = list(self.sizes)
        if self.tasks is not None:
            out["tasks"] = list(self.tasks)
        return out

    @classmethod
    def from_dict(cls, data: Dict) -> "SweepRequest":
        known = {"figure", "sizes", "tasks", "scale", "out_dir"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown request fields: {', '.join(sorted(unknown))}")
        if "figure" not in data:
            raise ValueError("request needs a 'figure'")
        kwargs = dict(data)
        if kwargs.get("sizes") is not None:
            kwargs["sizes"] = tuple(kwargs["sizes"])
        if kwargs.get("tasks") is not None:
            kwargs["tasks"] = tuple(kwargs["tasks"])
        return cls(**kwargs)

    def with_out_dir(self, out_dir: str) -> "SweepRequest":
        return replace(self, out_dir=out_dir)

    # ----------------------------------------------------------- derived
    @property
    def resolved_sizes(self) -> Tuple[int, ...]:
        return (tuple(self.sizes) if self.sizes
                else FIGURES[self.figure].default_sizes)

    def meta(self) -> Dict:
        """Journal ``sweep`` metadata, compatible with ``repro resume``."""
        meta = {"figure": self.figure, "sizes": list(self.resolved_sizes),
                "scale": self.scale, "out_dir": self.out_dir}
        if self.tasks:
            meta["tasks"] = list(self.tasks)
        return meta

    def _driver_kwargs(self) -> Dict:
        kwargs: Dict = {"sizes": self.resolved_sizes, "scale": self.scale}
        if FIGURES[self.figure].takes_tasks:
            kwargs["tasks"] = tuple(self.tasks) if self.tasks else None
        return kwargs

    def cells(self) -> List[CellSpec]:
        """The exact cell grid the figure driver would execute."""
        return declared_cells(lambda runner: FIGURES[self.figure].run_fn(
            runner=runner, **self._driver_kwargs()))

    # --------------------------------------------------------- execution
    def run_with(self, runner) -> str:
        """Run the driver through ``runner`` and write crash-safe artifacts.

        Returns the rendered figure text. Artifacts (``<figure>.txt``,
        ``<figure>.csv``, refreshed ``MANIFEST.json``) land in
        ``out_dir`` via atomic writes.
        """
        result = FIGURES[self.figure].run_fn(runner=runner,
                                             **self._driver_kwargs())
        return write_figure(self.figure, result, self.out_dir)

    def finalize(self, journal_path: str) -> str:
        """Rebuild the figure from a completed journal (all cache hits)."""
        return self.run_with(SweepRunner(journal_path))
