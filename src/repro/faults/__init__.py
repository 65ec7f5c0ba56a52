"""Deterministic fault injection and recovery policies for Howsim.

Build a :class:`FaultPlan` (or load one from JSON), install a
:class:`FaultInjector` on a simulator before constructing the machine,
and run as usual::

    from repro.faults import FaultInjector, FaultPlan, FaultSpec

    plan = FaultPlan.of(
        FaultSpec(kind="drive_failure", target="disk.3", at=1.5),
        seed=7)
    sim = Simulator()
    injector = FaultInjector(plan).install(sim)
    machine = build_machine(sim, config)
    result = machine.run(program)       # completes, degraded
    print(injector.counters)            # faults.* recovery accounting

With no plan armed every injection site is zero-cost and runs are
bit-identical to a fault-free simulator; with a plan, identical
(plan, seed) pairs reproduce identical event timelines. See
``docs/FAULTS.md`` for the taxonomy and plan-file schema.
"""

from .errors import DriveFailed, FaultError
from .injector import NULL_FAULTS, FaultInjector, FaultPort, NullFaultInjector
from .plan import FAULT_KINDS, FaultPlan, FaultSpec
from .policies import RetryPolicy

__all__ = [
    "FaultPlan", "FaultSpec", "FAULT_KINDS",
    "FaultInjector", "FaultPort", "NullFaultInjector", "NULL_FAULTS",
    "RetryPolicy", "FaultError", "DriveFailed",
]
