"""Kernel microbenchmarks: one hot mechanism per benchmark.

Each benchmark builds a fresh :class:`~repro.sim.Simulator`, drives a
synthetic workload through the public kernel API only (so the same
benchmark runs unmodified against any kernel revision for A/B
comparisons), and reports the kernel's own ``event_count`` as the
events metric.

The shapes mirror what the experiment drivers actually do:

* ``timeout_storm`` — many processes sleeping in a loop, the dominant
  pattern in every device model (media transfers, CPU service, wire
  occupancy).
* ``event_churn`` — create/succeed/wait cycles, the completion-event
  pattern of :meth:`DiskDrive.submit` and the resource grants.
* ``relay_churn`` — yielding events that already fired and were
  processed, exercising the kernel's relay path (stores, cached
  completions).
* ``process_spawn`` — short-lived processes, the ``isend`` /
  reader-per-block pattern of the messaging and block loops.
* ``server_storm`` — contended FIFO :class:`~repro.sim.Server` slots,
  the CPU/bus arbitration pattern.
"""

from __future__ import annotations

from typing import List

from ..sim import Server, Simulator
from .report import BenchResult, measure

__all__ = ["run_kernel_suite", "KERNEL_BENCHMARKS"]


def _timeout_storm(procs: int, rounds: int) -> int:
    sim = Simulator()
    # The storm measures the kernel's sleep mechanism as the device
    # models use it: the pooled pause() path where available, plain
    # timeouts on kernels that predate it (keeps A/B runs comparable).
    sleep = getattr(sim, "pause", sim.timeout)

    def sleeper(delay: float):
        for _ in range(rounds):
            yield sleep(delay)

    for p in range(procs):
        sim.process(sleeper(1e-4 * (p + 1)), name=f"sleep{p}")
    sim.run()
    return sim.event_count


def _event_churn(procs: int, rounds: int) -> int:
    sim = Simulator()

    def churner():
        for _ in range(rounds):
            event = sim.event()
            event.succeed(None)
            yield event

    for p in range(procs):
        sim.process(churner(), name=f"churn{p}")
    sim.run()
    return sim.event_count


def _relay_churn(procs: int, rounds: int) -> int:
    sim = Simulator()

    def relayer():
        for _ in range(rounds):
            done = sim.event()
            done.succeed("payload")
            # Let the event be processed with no waiter...
            yield sim.timeout(1e-6)
            # ...then yield it after the fact: the kernel must relay.
            value = yield done
            assert value == "payload"

    for p in range(procs):
        sim.process(relayer(), name=f"relay{p}")
    sim.run()
    return sim.event_count


def _process_spawn(procs: int, rounds: int) -> int:
    sim = Simulator()

    def child(delay: float):
        yield sim.timeout(delay)
        return 1

    def spawner(p: int):
        total = 0
        for _ in range(rounds):
            total += yield sim.process(child(1e-5 * (p + 1)))
        assert total == rounds

    for p in range(procs):
        sim.process(spawner(p), name=f"spawn{p}")
    sim.run()
    return sim.event_count


def _server_storm(procs: int, rounds: int) -> int:
    sim = Simulator()
    server = Server(sim, capacity=4, name="storm")

    def client(p: int):
        for _ in range(rounds):
            yield from server.serve(1e-5 * ((p % 7) + 1))

    for p in range(procs):
        sim.process(client(p), name=f"client{p}")
    sim.run()
    return sim.event_count


#: name -> (callable, full (procs, rounds), quick (procs, rounds))
KERNEL_BENCHMARKS = {
    "timeout_storm": (_timeout_storm, (64, 4000), (16, 500)),
    "event_churn": (_event_churn, (64, 2000), (16, 250)),
    "relay_churn": (_relay_churn, (64, 1000), (16, 125)),
    "process_spawn": (_process_spawn, (64, 1500), (16, 200)),
    "server_storm": (_server_storm, (64, 2000), (16, 250)),
}


def run_kernel_suite(quick: bool = False,
                     repeats: int = 3) -> List[BenchResult]:
    """Run every kernel microbenchmark; returns one result each."""
    results = []
    for name, (fn, full_shape, quick_shape) in KERNEL_BENCHMARKS.items():
        procs, rounds = quick_shape if quick else full_shape
        results.append(measure(
            name, lambda fn=fn, p=procs, r=rounds: fn(p, r),
            repeats=1 if quick else repeats, procs=procs, rounds=rounds))
    return results
