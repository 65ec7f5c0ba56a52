"""The telemetry hub: one object that owns all observability state.

A :class:`Telemetry` bundles a :class:`~repro.telemetry.metrics.MetricRegistry`
and a :class:`~repro.telemetry.spans.SpanRecorder`, plus registered probes
(queue depths, utilizations) sampled at a fixed simulated interval.
Install it on a simulator **before** building the machine::

    sim = Simulator()
    tel = Telemetry().install(sim)
    machine = build_machine(sim, config)
    machine.run(program)
    write_chrome_trace(tel, "trace.json")

Every instrumentation probe in the component models goes through
``sim.telemetry``; the default is the module-level :data:`NULL_TELEMETRY`
singleton whose ``enabled`` flag is False, so an uninstrumented run costs
one attribute load and a branch per probe site — nothing is allocated,
recorded or sampled.

Lifecycle: :meth:`~repro.sim.Simulator.run` samples the probes between
slices of its event loop (see :meth:`Telemetry.sample_period`), so an
observed run has the same events and end time as an unobserved one.
Installation also registers a hook on the simulator so that a final
sample and an open-span flush happen when the run ends.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from .metrics import MetricRegistry
from .spans import SpanRecorder

__all__ = ["Telemetry", "NullTelemetry", "NULL_TELEMETRY"]


class Telemetry:
    """Live observability hub: registry + spans + periodic sampling.

    Parameters
    ----------
    sample_interval:
        Simulated seconds between probe samples (``None`` disables
        periodic sampling; explicit span/metric probes still record).
    max_events:
        Span-recorder event budget; see
        :class:`~repro.telemetry.spans.SpanRecorder`.
    """

    enabled = True

    def __init__(self, sample_interval: Optional[float] = 0.25,
                 max_events: int = 1_000_000):
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive, got {sample_interval}")
        self.sample_interval = sample_interval
        self._sim: Any = None
        self.registry = MetricRegistry(clock=self.now)
        self.spans = SpanRecorder(clock=self.now, max_events=max_events)
        self._probes: Dict[str, Callable[[], float]] = {}
        self.run_ended_at: Optional[float] = None
        self.meta: Dict[str, Any] = {}

    # -- clock ------------------------------------------------------------
    def now(self) -> float:
        """Current simulated time (0.0 before installation)."""
        return self._sim.now if self._sim is not None else 0.0

    # -- wiring -----------------------------------------------------------
    def install(self, sim) -> "Telemetry":
        """Attach to ``sim``: become ``sim.telemetry`` and hook its run."""
        if self._sim is not None and self._sim is not sim:
            raise RuntimeError("Telemetry is already installed on a "
                               "different simulator")
        self._sim = sim
        sim.telemetry = self
        sim.add_hook(self)
        return self

    # Simulator lifecycle hook protocol --------------------------------
    def run_finished(self, sim) -> None:
        self.run_ended_at = sim.now
        if self._probes:
            self.sample()
        self.spans.flush_open(sim.now)

    # -- probes -----------------------------------------------------------
    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        """Register a zero-argument numeric probe sampled periodically.

        Each sample lands in a ``series`` metric under ``name`` *and* as
        a counter-track sample in the trace, so the value is visible
        both as a summary average and as a timeline.
        """
        self._probes[name] = fn
        self.registry.series(name)

    def probe_names(self) -> List[str]:
        return sorted(self._probes)

    def sample_period(self) -> Optional[float]:
        """Seconds between the samples :meth:`~repro.sim.Simulator.run`
        takes, or ``None`` when there is nothing to sample."""
        return self.sample_interval if self._probes else None

    def sample(self) -> None:
        """Record every probe's value at the current simulated time."""
        ts = self.now()
        for name, fn in self._probes.items():
            try:
                value = float(fn())
            except ZeroDivisionError:
                value = 0.0
            self.registry.series(name).set(value)
            self.spans.counter(name, {"value": value}, ts=ts)

    # -- convenience ------------------------------------------------------
    def utilization(self, track: str, until: Optional[float] = None) -> float:
        """Busy fraction of a span track over the run so far."""
        horizon = until if until is not None else (
            self.run_ended_at if self.run_ended_at else self.now())
        if horizon <= 0:
            return 0.0
        return self.spans.busy_by_track().get(track, 0.0) / horizon


class NullTelemetry:
    """The do-nothing hub: every probe site's default target.

    Exposes the same attribute surface as :class:`Telemetry`
    (``.spans``, ``.registry``, ``.add_probe`` ...) so call sites that
    forget the ``enabled`` guard still work — they just record nothing.
    Hot paths should guard anyway; the guard is the zero-cost contract.
    """

    enabled = False
    sample_interval = None
    run_ended_at = None

    def __init__(self):
        self.registry = MetricRegistry()
        self.spans = _NullSpanRecorder()
        self.meta: Dict[str, Any] = {}

    def now(self) -> float:
        return 0.0

    def install(self, sim) -> "NullTelemetry":
        sim.telemetry = self
        return self

    def run_finished(self, sim) -> None:
        pass

    def add_probe(self, name: str, fn: Callable[[], float]) -> None:
        pass

    def probe_names(self) -> List[str]:
        return []

    def sample_period(self) -> None:
        return None

    def sample(self) -> None:
        pass

    def utilization(self, track: str, until: Optional[float] = None) -> float:
        return 0.0


class _NullSpanRecorder:
    """No-op twin of :class:`~repro.telemetry.spans.SpanRecorder`."""

    spans: tuple = ()
    instants: tuple = ()
    counters: tuple = ()
    dropped = 0

    def __len__(self) -> int:
        return 0

    def complete(self, *args, **kwargs) -> None:
        pass

    def begin(self, *args, **kwargs):
        from .spans import OpenSpan
        return OpenSpan("", "", "", 0.0, None, closed=True)

    def end(self, span) -> None:
        pass

    def instant(self, *args, **kwargs) -> None:
        pass

    def counter(self, *args, **kwargs) -> None:
        pass

    def open_spans(self) -> tuple:
        return ()

    def flush_open(self, now=None) -> int:
        return 0

    def tracks(self) -> list:
        return []

    def busy_by_track(self) -> dict:
        return {}

    def window(self, start: float, end: float) -> list:
        return []


#: Shared do-nothing hub; ``Simulator`` points at this until a real
#: :class:`Telemetry` is installed.
NULL_TELEMETRY = NullTelemetry()
