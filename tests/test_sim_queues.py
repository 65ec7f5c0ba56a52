"""Tests for the kernel's event queue.

The pending-event queue is a ``heapq`` list of ``[time, seq, event]``
entries owned by ``Simulator``. These tests pin its observable contract
under every run loop — the fast loop, the checked (``debug=True``) loop
and the armed-auditor loop: same pop order including same-tick FIFO,
pooled timeouts and interrupts that do not disturb it, ``peek()`` that
sees same-tick events still pending, and a clear error on an empty
``step()``.
"""

import pytest

from repro.invariants import InvariantAuditor
from repro.sim import SimulationError, Simulator

# The kernel has one event queue, the heap; the parameter names it in
# each test id.
QUEUES = ["heap"]


def _armed_sim():
    sim = Simulator()
    InvariantAuditor().install(sim)
    return sim


# ----------------------------------------------------- kernel behaviour

@pytest.mark.parametrize("queue", QUEUES)
class TestKernelParity:
    def test_empty_step_raises(self, queue):
        sim = Simulator()
        with pytest.raises(SimulationError,
                           match=r"step\(\) on an empty event queue"):
            sim.step()

    def test_interrupts_and_pooled_timeouts(self, queue):
        # pause() recycles Timeouts through the pool; interrupts ride
        # the relay pool. Interleaving both must not disturb order or
        # leak recycled events, in any loop.
        def workload(sim):
            log = []

            def worker(i):
                for r in range(5):
                    try:
                        yield sim.pause(1e-4 * ((i + r) % 3 + 1))
                    except Exception:
                        pass
                    log.append((round(sim.now, 9), i, r))

            workers = [sim.process(worker(i), name=f"w{i}")
                       for i in range(8)]

            def interrupter():
                yield sim.pause(2.5e-4)
                workers[0].interrupt("poke")
                workers[3].interrupt("poke")
                yield sim.pause(2.5e-4)

            sim.process(interrupter(), name="intr")
            sim.run()
            return log

        log = workload(Simulator())
        assert len(log) == 40
        times = [entry[0] for entry in log]
        assert times == sorted(times)
        assert workload(Simulator(debug=True)) == log
        assert workload(_armed_sim()) == log

    def test_batch_aware_peek(self, queue):
        # A callback running while other same-tick events are pending
        # must still see peek() == now (the Sampler loop depends on
        # this).
        sim = Simulator()
        peeks = []

        def observer():
            while True:
                peeks.append((sim.now, sim.peek()))
                if sim.peek() == float("inf"):
                    return
                yield sim.pause(sim.peek() - sim.now)

        def worker():
            for _ in range(3):
                yield sim.pause(1.0)

        sim.process(observer(), name="obs")
        sim.process(worker(), name="work")
        sim.run()
        # The observer woke at every event time, including inside the
        # t=0 bootstrap tick, so peek() never goes blind mid-tick.
        assert [p[0] for p in peeks] == [0.0, 0.0, 1.0, 2.0, 3.0, 3.0]


def _workload(sim):
    done = []

    def burst(i):
        for r in range(20):
            yield sim.pause(1e-5 * ((i * 7 + r) % 11 + 1))
            if r % 5 == 0:
                yield sim.pause(0.0)  # same-tick re-arm
        done.append(i)

    def spawner():
        for i in range(4):
            child = sim.process(burst(100 + i), name=f"c{i}")
            yield child

    for i in range(12):
        sim.process(burst(i), name=f"b{i}")
    sim.process(spawner(), name="spawn")
    sim.run()
    return sim.now, sim.event_count, sorted(done)


@pytest.mark.parametrize("queue", QUEUES)
def test_loop_parity_matrix(queue):
    """fast / checked / armed agree on clock, count and results."""
    fast = _workload(Simulator())
    assert _workload(Simulator(debug=True)) == fast
    assert _workload(_armed_sim()) == fast
