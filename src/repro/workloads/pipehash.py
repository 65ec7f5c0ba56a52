"""PipeHash planner for the datacube task (Agarwal et al., VLDB'96).

The datacube over 4 dimensions computes 15 group-bys (every non-empty
attribute subset). PipeHash minimizes input scans by computing several
group-bys in one pass, as a pipeline of hash tables that must fit in
memory together. The paper's operating points (Section 4.3):

* the largest (4-attribute root) group-by's table is 695 MB;
* the remaining 14 group-bys need 2.3 GB in total and "can be merged
  into a single scan" when that much disk memory is available;
* the root is computed from the raw input in its own scan; child
  group-bys are computed from the root's output;
* when the root's table does not fit the (aggregate) disk memory — the
  16-disk / 32 MB case — each disk forwards partially-computed hash
  tables to the front-end as its table overflows, repeatedly re-sending
  entries. We model that spill volume as ``SPILL_FACTOR x root size``.

Table sizes: child group-by tables shrink geometrically with each dropped
attribute; the ratio is calibrated so the 14 children total the published
2.3 GB given the published 695 MB root.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import List, Tuple

__all__ = ["GroupBy", "PipeHashPlan", "PassPlan", "plan_pipehash",
           "child_table_sizes", "SHRINK_RATIO", "SPILL_FACTOR"]

#: Geometric shrink per dropped attribute; solves
#: root * (4/r + 6/r^2 + 4/r^3) = 2.3 GB with root = 695 MB.
SHRINK_RATIO = 2.25

#: Spill amplification when the root table thrashes: once a disk's
#: partial table can no longer aggregate in place, essentially every
#: insertion is flushed to the front-end, so the spill volume approaches
#: the full tuple volume rather than one table's worth — about 24x the
#: stable table size for this dataset (536 M tuples vs 21.7 M entries).
#: Calibrated against the 16-disk configuration's ~35 % gain from
#: doubling disk memory (Figure 4).
SPILL_FACTOR = 24.0


@dataclass(frozen=True)
class GroupBy:
    """One group-by of the cube: an attribute subset and its table size."""

    attributes: Tuple[int, ...]
    table_bytes: int

    @property
    def arity(self) -> int:
        return len(self.attributes)


@dataclass(frozen=True)
class PassPlan:
    """One scan: which group-bys it computes and what it reads/writes."""

    group_bys: Tuple[GroupBy, ...]
    read_bytes: int          # raw input for the root pass, root output after
    write_bytes: int         # group-by tables written out
    spill_bytes: int = 0     # partial tables forwarded to the front-end
    scans_raw_input: bool = False


@dataclass(frozen=True)
class PipeHashPlan:
    """The full schedule: an ordered list of passes."""

    passes: Tuple[PassPlan, ...]

    @property
    def num_passes(self) -> int:
        return len(self.passes)

    @property
    def total_spill_bytes(self) -> int:
        return sum(p.spill_bytes for p in self.passes)


def child_table_sizes(root_bytes: int, dims: int = 4,
                      ratio: float = SHRINK_RATIO) -> List[GroupBy]:
    """All non-root group-bys with geometrically shrinking tables."""
    children: List[GroupBy] = []
    for arity in range(dims - 1, 0, -1):
        size = int(root_bytes / ratio ** (dims - arity))
        for attrs in combinations(range(dims), arity):
            children.append(GroupBy(attributes=attrs, table_bytes=size))
    return children


def plan_pipehash(input_bytes: int, root_table_bytes: int,
                  aggregate_memory: int, dims: int = 4,
                  ratio: float = SHRINK_RATIO,
                  spill_factor: float = SPILL_FACTOR) -> PipeHashPlan:
    """Schedule the cube's 15 group-bys into memory-feasible passes.

    Pass 1 always scans the raw input and computes the root group-by;
    when the root table exceeds ``aggregate_memory`` the pass spills
    ``spill_factor * root_table_bytes`` of partial tables to the
    front-end. Subsequent passes scan the root's output and compute
    bin-packed subsets of the children (first-fit decreasing).
    """
    if aggregate_memory <= 0:
        raise ValueError(f"non-positive memory: {aggregate_memory}")
    root = GroupBy(attributes=tuple(range(dims)),
                   table_bytes=root_table_bytes)
    spill = 0
    if root_table_bytes > aggregate_memory:
        spill = int(spill_factor * root_table_bytes)
    passes: List[PassPlan] = [PassPlan(
        group_bys=(root,),
        read_bytes=input_bytes,
        write_bytes=root_table_bytes,
        spill_bytes=spill,
        scans_raw_input=True,
    )]

    children = sorted(child_table_sizes(root_table_bytes, dims, ratio),
                      key=lambda g: g.table_bytes, reverse=True)
    bins: List[List[GroupBy]] = []
    bin_free: List[int] = []
    for child in children:
        placed = False
        for i, free in enumerate(bin_free):
            if child.table_bytes <= free:
                bins[i].append(child)
                bin_free[i] -= child.table_bytes
                placed = True
                break
        if not placed:
            bins.append([child])
            bin_free.append(aggregate_memory - child.table_bytes)

    for group in bins:
        passes.append(PassPlan(
            group_bys=tuple(group),
            read_bytes=root_table_bytes,
            write_bytes=sum(g.table_bytes for g in group),
            scans_raw_input=False,
        ))
    return PipeHashPlan(passes=tuple(passes))
