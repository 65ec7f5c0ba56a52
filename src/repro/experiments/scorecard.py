"""The paper's claims, declared once, and the scorecard that checks them.

A :class:`Claim` is one result the paper states: where it says so, the
cells it reads, and the band each of its measured values must land in.
:data:`CLAIMS` is the one list of them. The artifact registry builds it
as ``results/scorecard.txt``; every claim cell is a cell of a figure
grid, so ``repro build`` simulates nothing more for it. The tier-1
tests check each claim at 1/64, ``benchmarks/`` at the committed scale,
and ``python -m repro scorecard`` prints the table.

A band is an interval: ``(`` and ``)`` exclude an end, ``[`` and ``]``
include it, and ``inf`` leaves a side unbounded. A claim with several
values (one per task or per size) passes when each of them does.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import chain, islice
from typing import Callable, List, Sequence, Tuple

from ..arch.base import RunResult
from ..arch.costs import cost_table
from .harness import execute_cells
from .report import render_table
from .runner import DEFAULT_SCALE
from .workers import CellSpec

__all__ = ["CLAIMS", "Claim", "ClaimResult", "Scorecard", "run_scorecard"]

#: One measured value: the cells it reads, and the function of their
#: results, in that order, that gives the value.
Term = Tuple[Tuple[CellSpec, ...], Callable[..., float]]


def _inside(band: str, value: float) -> bool:
    """Whether ``value`` lies in ``band``, an interval such as
    ``(1.5, 10]``."""
    low, high = (float(end) for end in band[1:-1].split(","))
    return ((low <= value if band[0] == "[" else low < value)
            and (value <= high if band[-1] == "]" else value < high))


@dataclass(frozen=True)
class Claim:
    """One published result: its values and the band they must land in."""

    id: str
    ref: str                   # where the paper states it
    statement: str
    band: str
    terms: Tuple[Term, ...]
    unit: str = "x"

    def cells(self, scale: float) -> List[CellSpec]:
        """The cells of every term at ``scale``, in order."""
        return [replace(cell, scale=scale)
                for cells, _ in self.terms for cell in cells]

    def values(self, results: Sequence[RunResult]) -> Tuple[float, ...]:
        """Each term's value, given the results of :meth:`cells`."""
        results = iter(results)
        return tuple(value(*islice(results, len(cells)))
                     for cells, value in self.terms)


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    values: Tuple[float, ...]

    @property
    def passed(self) -> bool:
        return all(_inside(self.claim.band, value) for value in self.values)

    @property
    def measured(self) -> str:
        """The value, or the range ``min..max`` of the values, with the unit."""
        low, high = min(self.values), max(self.values)
        if len(self.values) == 1:
            return f"{low:.2f}{self.claim.unit}"
        return f"{low:.2f}..{high:.2f}{self.claim.unit}"


@dataclass
class Scorecard:
    """The claims at one scale with the results of their cells. Values
    are taken when the card is read, so a pass that only collects cells
    computes none."""

    scale: float
    claims: Sequence[Claim]
    runs: List[List[RunResult]]   # per claim, the results of its cells

    @property
    def results(self) -> List[ClaimResult]:
        return [ClaimResult(claim, claim.values(runs))
                for claim, runs in zip(self.claims, self.runs)]

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def result(self, claim_id: str) -> ClaimResult:
        return next(result for result in self.results
                    if result.claim.id == claim_id)

    def render(self) -> str:
        results = self.results
        return render_table(
            f"Reproduction scorecard: {sum(r.passed for r in results)}/"
            f"{len(results)} claims pass (scale {self.scale:g})",
            ("ref", "claim", "band", "measured", "verdict"),
            [(r.claim.ref, r.claim.statement, r.claim.band, r.measured,
              "PASS" if r.passed else "FAIL") for r in results])


def run_scorecard(runner, scale: float = DEFAULT_SCALE) -> Scorecard:
    """Ask ``runner`` for the cells of :data:`CLAIMS`, each distinct
    cell once; the ``scorecard`` artifact's run."""
    cells = [claim.cells(scale) for claim in CLAIMS]
    results = execute_cells(list(dict.fromkeys(chain.from_iterable(cells))),
                            runner)
    return Scorecard(scale, CLAIMS,
                     [[results[cell.key] for cell in own] for own in cells])


# ---------------------------------------------------------------- cells
def _cell(task: str, disks: int, arch: str = "active",
          variant: str = "base", **knobs) -> CellSpec:
    """A figure-grid cell, labelled as its figure driver labels it."""
    return CellSpec(task, arch, disks, variant=variant, **knobs)


def _io400(task: str, disks: int, arch: str = "active") -> CellSpec:
    return _cell(task, disks, arch, "400MB", interconnect_mb=400)


def _ratio(cell: CellSpec, base: CellSpec) -> Term:
    """``cell``'s elapsed time over ``base``'s."""
    return (cell, base), lambda run, base_run: run.elapsed / base_run.elapsed


# Each helper below gives one term per task of its space-separated
# ``tasks``, or per disk count of ``sizes``.
def _vs_ad(tasks: str, arch: str, disks: int) -> Tuple[Term, ...]:
    """Figure 1's normalized time: ``arch`` over Active Disks."""
    return tuple(_ratio(_cell(task, disks, arch), _cell(task, disks))
                 for task in tasks.split())


def _slowdown(tasks: str, disks: int) -> Tuple[Term, ...]:
    """Figure 5: restricted (all via the front-end) over direct."""
    return tuple(_ratio(_cell(task, disks, variant="restricted",
                              restricted=True), _cell(task, disks))
                 for task in tasks.split())


def _gain(tasks: str, disks: int) -> Tuple[Term, ...]:
    """Figure 4's percent improvement from 64 MB of disk memory."""
    return tuple(((_cell(task, disks),
                   _cell(task, disks, variant="mem64", memory_mb=64)),
                  lambda base, more:
                  100.0 * (base.elapsed - more.elapsed) / base.elapsed)
                 for task in tasks.split())


def _sort(value: Callable[[RunResult], float], *sizes: int
          ) -> Tuple[Term, ...]:
    """``value`` of Active Disk sort's base run."""
    return tuple(((_cell("sort", disks),), value) for disks in sizes)


def _idle(run: RunResult) -> float:
    """Figure 3(b): percent of sort's first phase the disks sit idle."""
    return 100.0 * run.phases[0].fractions()["idle"]


def _price_ratio() -> float:
    """Table 1: the mean Active Disk over cluster price of 64 nodes."""
    rows = cost_table(64)
    return sum(ratio for _, _, _, ratio in rows) / len(rows)


#: Every claim, in table order. A claim's id names its tier-1 test.
CLAIMS: Tuple[Claim, ...] = (
    Claim("16_disk_configurations_comparable", "Figure 1",
          "select, sort: all three architectures comparable at 16 disks",
          "(0.5, 1.7)", _vs_ad("select sort", "cluster", 16)
          + _vs_ad("select sort", "smp", 16)),
    Claim("smp_slowdown_grows_with_size", "Figure 1",
          "select: SMP's slowdown at 128 disks over 2.5x that at 16",
          "(2.5, inf)", (((_cell("select", 128, "smp"), _cell("select", 128),
                           _cell("select", 16, "smp"), _cell("select", 16)),
                          lambda smp128, ad128, smp16, ad16:
                          smp128.elapsed / ad128.elapsed
                          / (smp16.elapsed / ad16.elapsed)),)),
    Claim("smp_1_4_to_2_4_fold_at_32", "Figure 1",
          "sort: SMP 1.4-2.4x slower at 32 disks", "[1.2, 2.6]",
          _vs_ad("sort", "smp", 32)),
    Claim("largest_gains_for_data_reduction_tasks_at_128", "Figure 1",
          "select, aggregate: SMP 8.5-9.5x slower at 128 disks", "(6, 13)",
          _vs_ad("select aggregate", "smp", 128)),
    Claim("repartition_tasks_3_to_6_fold_at_128", "Figure 1",
          "sort, join, mview, dmine: SMP 4-6x slower at 128 disks", "(3, 7)",
          _vs_ad("sort join mview dmine", "smp", 128)),
    Claim("groupby_cluster_frontend_bottleneck", "Figure 1",
          "group-by outlier: cluster over 1.5x slower at 128 disks",
          "(1.5, 10]", _vs_ad("groupby", "cluster", 128)),
    Claim("cluster_competitive_on_other_tasks", "Figure 1",
          "select, aggregate, sort, join: cluster near Active Disks at 128",
          "(0.3, 1.7)", _vs_ad("select aggregate sort join", "cluster", 128)),
    Claim("active_disks_never_worst_at_scale", "Figure 1",
          "every task: SMP no faster than Active Disks at 128 disks",
          "[1, inf)", _vs_ad("select sort join mview dmine groupby dcube "
                             "aggregate", "smp", 128)),
    Claim("doubling_interconnect_helps_smp_a_lot", "Figure 2",
          "select: SMP at 400 over 200 MB/s I/O, 64 disks", "(-inf, 0.7)",
          (_ratio(_io400("select", 64, "smp"), _cell("select", 64, "smp")),)),
    Claim("ad_at_200_beats_smp_at_400", "Figure 2",
          "select, sort: SMP at 400 MB/s over Active Disks at 200, 128 disks",
          "(1.4, inf)", tuple(_ratio(_io400(task, 128, "smp"), _cell(task, 128))
                              for task in ("select", "sort"))),
    Claim("ad_scan_tasks_insensitive_to_interconnect", "Figure 2",
          "select: Active Disks at 400 over 200 MB/s, 128 disks",
          "[0.95, 1.05]", (_ratio(_io400("select", 128), _cell("select", 128)),)),
    Claim("ad_sort_gains_from_interconnect_at_128", "Figure 2",
          "sort: Active Disks at 400 over 200 MB/s, 128 disks", "(-inf, 0.85)",
          (_ratio(_io400("sort", 128), _cell("sort", 128)),)),
    Claim("sort_phase_dominates", "Figure 3",
          "sort: phase 1 over phase 2 on Active Disks, 64 disks", "(1, inf)",
          _sort(lambda run: run.phases[0].elapsed / run.phases[1].elapsed, 64)),
    Claim("idle_small_up_to_64_disks", "Figure 3",
          "sort phase 1 idle small at 16 and 64 disks", "[0, 30)",
          _sort(_idle, 16, 64), unit="%"),
    Claim("idle_dominates_at_128_disks", "Figure 3",
          "sort phase 1 idle dominates at 128 disks", "(45, 100]",
          _sort(_idle, 128), unit="%"),
    Claim("fast_disk_makes_little_difference_at_128", "Figure 3",
          "sort: fast disks over base disks, 128 disks", "(0.9, inf)",
          (_ratio(_cell("sort", 128, variant="fastdisk",
                        drive="HITACHI_DK3E1T91"), _cell("sort", 128)),)),
    Claim("fast_io_has_major_impact_at_128", "Figure 3",
          "sort: fast I/O (400 MB/s) over base, 128 disks", "(-inf, 0.8)",
          (_ratio(_io400("sort", 128), _cell("sort", 128)),)),
    Claim("most_tasks_insensitive_to_memory", "Figure 4",
          "six tasks: ~2% gain from 64 MB at 64 disks", "(-5, 5)",
          _gain("select join mview groupby aggregate dmine", 64), unit="%"),
    Claim("sort_gains_slightly", "Figure 4",
          "sort: <8% gain from 64 MB at 16 disks", "(-1, 8)",
          _gain("sort", 16), unit="%"),
    Claim("dcube_large_gain_at_16_disks", "Figure 4",
          "dcube: ~35% gain from 64 MB at 16 disks", "(25, 45)",
          _gain("dcube", 16), unit="%"),
    Claim("dcube_smaller_gain_on_larger_configs", "Figure 4",
          "dcube: smaller gain from 64 MB at 64 disks, still a spike",
          "(3, 15)", _gain("dcube", 64), unit="%"),
    Claim("dcube_no_gain_at_128_disks", "Figure 4",
          "dcube: negligible gain from 64 MB at 128 disks", "(-5, 5)",
          _gain("dcube", 128), unit="%"),
    Claim("repartition_tasks_hit_hard", "Figure 5",
          "sort, join, mview: up to ~5x slower via the front-end, 128 disks",
          "(3, 5.5]", _slowdown("sort join mview", 128)),
    Claim("remaining_tasks_unaffected", "Figure 5",
          "five other tasks: unaffected by front-end routing, 64 disks",
          "[0.95, 1.05]", _slowdown("select aggregate groupby dmine dcube", 64)),
    Claim("active_disks_half_the_cluster_price", "Table 1",
          "64-node Active Disk price ~ half the cluster's", "[0.35, 0.55]",
          (((), _price_ratio),), unit=""),
)
