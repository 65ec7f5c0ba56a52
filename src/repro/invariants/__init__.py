"""repro.invariants — runtime conservation-law auditing.

The repo's other correctness guards are *offline* (analytic disk
validation, dataflow counting, byte-identity against ``results/``).
This subsystem polices the simulator's physics *at runtime*: armed
auditors attach to live components and raise a structured
:class:`InvariantViolation` — component path, simulated time,
expected-vs-observed ledger — the moment a conservation law breaks.

Arming follows the telemetry/faults pattern::

    from repro.invariants import InvariantAuditor
    from repro.experiments import config_for, run_task

    result = run_task(config_for("active", num_disks=4), "select",
                      scale=1 / 64, invariants=InvariantAuditor())

or, to arm every :func:`~repro.experiments.runner.run_task` in a block
(used by the armed figure-regeneration tests)::

    from repro.experiments import fig1_identity_check
    from repro.invariants import armed
    with armed():
        fig1_identity_check(quick=True)

Disarmed (the default), the layer costs one attribute load and a branch
per probe site and simulations are bit-identical to builds without it.
Armed, auditors only observe — no events, no processes, no clock
interaction — so armed runs are bit-identical too; they just might
raise. The differential fuzzer lives in :mod:`repro.invariants.fuzz`
and behind ``repro audit`` on the CLI.

See ``docs/INVARIANTS.md`` for the auditor catalog and ledger format.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .auditor import (
    NULL_INVARIANTS,
    BusAuditor,
    DriveAuditor,
    InvariantAuditor,
    MachineAuditor,
    MemoryAuditor,
    MessagingAuditor,
    NullInvariants,
)
from .errors import InvariantViolation

__all__ = [
    "InvariantViolation",
    "InvariantAuditor",
    "NullInvariants",
    "NULL_INVARIANTS",
    "DriveAuditor",
    "MachineAuditor",
    "MemoryAuditor",
    "BusAuditor",
    "MessagingAuditor",
    "armed",
    "is_armed",
    "default_auditor",
]

#: Nesting depth of :func:`armed` contexts (0 = disarmed default).
_ARMED_DEPTH = 0


@contextmanager
def armed() -> Iterator[None]:
    """Arm a fresh auditor on every :func:`run_task` in this block.

    Drivers that build their own simulators (the figure sweeps, the
    benchmark suites) consult :func:`default_auditor` through
    ``run_task``; wrapping them in ``with armed():`` audits every cell
    without threading a parameter through every call site.
    """
    global _ARMED_DEPTH
    _ARMED_DEPTH += 1
    try:
        yield
    finally:
        _ARMED_DEPTH -= 1


def is_armed() -> bool:
    """True inside an :func:`armed` block."""
    return _ARMED_DEPTH > 0


def default_auditor() -> Optional[InvariantAuditor]:
    """A fresh auditor inside an :func:`armed` block, else ``None``."""
    if _ARMED_DEPTH > 0:
        return InvariantAuditor()
    return None
