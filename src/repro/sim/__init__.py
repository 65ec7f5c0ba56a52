"""Discrete-event simulation kernel used by every Howsim component."""

from .core import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimStalled,
    SimulationError,
    Simulator,
    Timeout,
)
from .resources import Mutex, ProcessPool, Server, Store
from .stats import BusyTracker, Counter, StatSet, Tally, TimeWeighted
from .sampling import Sampler, sparkline
from .trace import TraceEntry, TraceLog

__all__ = [
    "Simulator", "Event", "Timeout", "Process", "AllOf", "AnyOf",
    "Interrupt", "SimulationError", "SimStalled",
    "Server", "Mutex", "Store", "ProcessPool",
    "Counter", "Tally", "TimeWeighted", "BusyTracker", "StatSet",
    "TraceLog", "TraceEntry", "Sampler", "sparkline",
]
