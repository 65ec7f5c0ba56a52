"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import (
    Interrupt,
    SimulationError,
    Simulator,
)


@pytest.fixture
def sim():
    return Simulator()


class TestClock:
    def test_starts_at_zero(self, sim):
        assert sim.now == 0.0

    def test_timeout_advances_clock(self, sim):
        def proc():
            yield sim.timeout(2.5)
        sim.process(proc())
        sim.run()
        assert sim.now == 2.5

    def test_run_until_stops_early(self, sim):
        def proc():
            yield sim.timeout(10.0)
        sim.process(proc())
        sim.run(until=4.0)
        assert sim.now == 4.0

    def test_run_until_in_past_rejected(self, sim):
        def proc():
            yield sim.timeout(10.0)
        sim.process(proc())
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=5.0)

    def test_run_until_with_empty_queue_sets_clock(self, sim):
        sim.run(until=7.0)
        assert sim.now == 7.0

    def test_event_count_increments(self, sim):
        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)
        sim.process(proc())
        sim.run()
        assert sim.event_count >= 2


class TestTimeout:
    def test_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    def test_zero_delay_fires_immediately(self, sim):
        fired = []
        def proc():
            yield sim.timeout(0.0)
            fired.append(sim.now)
        sim.process(proc())
        sim.run()
        assert fired == [0.0]

    def test_timeout_value_delivered(self, sim):
        got = []
        def proc():
            value = yield sim.timeout(1.0, value="payload")
            got.append(value)
        sim.process(proc())
        sim.run()
        assert got == ["payload"]

    def test_simultaneous_timeouts_fifo(self, sim):
        order = []
        def proc(name):
            yield sim.timeout(1.0)
            order.append(name)
        for name in "abc":
            sim.process(proc(name))
        sim.run()
        assert order == ["a", "b", "c"]


class TestEvent:
    def test_succeed_delivers_value(self, sim):
        event = sim.event()
        got = []
        def waiter():
            got.append((yield event))
        def trigger():
            yield sim.timeout(1.0)
            event.succeed(42)
        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert got == [42]

    def test_double_succeed_rejected(self, sim):
        event = sim.event()
        event.succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_raises_in_waiter(self, sim):
        event = sim.event()
        caught = []
        def waiter():
            try:
                yield event
            except RuntimeError as exc:
                caught.append(str(exc))
        def trigger():
            yield sim.timeout(1.0)
            event.fail(RuntimeError("boom"))
        sim.process(waiter())
        sim.process(trigger())
        sim.run()
        assert caught == ["boom"]

    def test_fail_requires_exception(self, sim):
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_unhandled_failure_aborts_run(self, sim):
        def bad():
            yield sim.timeout(1.0)
            raise ValueError("unhandled")
        sim.process(bad())
        with pytest.raises(ValueError):
            sim.run()

    def test_callback_after_processed_runs_immediately(self, sim):
        event = sim.event()
        event.succeed(7)
        sim.run()
        got = []
        event.add_callback(lambda e: got.append(e.value))
        assert got == [7]

    def test_triggered_and_processed_flags(self, sim):
        event = sim.event()
        assert not event.triggered and not event.processed
        event.succeed()
        assert event.triggered and not event.processed
        sim.run()
        assert event.processed


class TestProcess:
    def test_return_value_via_join(self, sim):
        def child():
            yield sim.timeout(1.0)
            return "done"
        got = []
        def parent():
            got.append((yield sim.process(child())))
        sim.process(parent())
        sim.run()
        assert got == ["done"]

    def test_is_alive(self, sim):
        def child():
            yield sim.timeout(5.0)
        proc = sim.process(child())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive

    def test_non_generator_rejected(self, sim):
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_yield_non_event_raises(self, sim):
        def bad():
            yield 42
        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_exception_propagates_to_joiner(self, sim):
        def child():
            yield sim.timeout(1.0)
            raise KeyError("inner")
        caught = []
        def parent():
            try:
                yield sim.process(child())
            except KeyError:
                caught.append(True)
        sim.process(parent())
        sim.run()
        assert caught == [True]

    def test_yield_already_processed_event(self, sim):
        event = sim.event()
        event.succeed("early")
        got = []
        def late():
            yield sim.timeout(3.0)
            got.append((yield event))
        sim.process(late())
        sim.run()
        assert got == ["early"] and sim.now == 3.0

    def test_interrupt_raises_in_process(self, sim):
        caught = []
        def worker():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                caught.append((sim.now, interrupt.cause))
        proc = sim.process(worker())
        def interrupter():
            yield sim.timeout(2.0)
            proc.interrupt("stop")
        sim.process(interrupter())
        sim.run()
        assert caught == [(2.0, "stop")]

    def test_interrupt_finished_process_rejected(self, sim):
        def worker():
            yield sim.timeout(1.0)
        proc = sim.process(worker())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()


class TestConditions:
    def test_all_of_waits_for_all(self, sim):
        times = []
        def proc():
            yield sim.all_of([sim.timeout(1.0), sim.timeout(3.0),
                              sim.timeout(2.0)])
            times.append(sim.now)
        sim.process(proc())
        sim.run()
        assert times == [3.0]

    def test_all_of_values_in_order(self, sim):
        got = []
        def proc():
            values = yield sim.all_of([
                sim.timeout(2.0, value="a"), sim.timeout(1.0, value="b")])
            got.append(values)
        sim.process(proc())
        sim.run()
        assert got == [["a", "b"]]

    def test_all_of_empty_fires_immediately(self, sim):
        got = []
        def proc():
            got.append((yield sim.all_of([])))
        sim.process(proc())
        sim.run()
        assert got == [[]]

    def test_any_of_fires_on_first(self, sim):
        times = []
        def proc():
            yield sim.any_of([sim.timeout(5.0), sim.timeout(1.0)])
            times.append(sim.now)
        sim.process(proc())
        sim.run()
        assert times == [1.0]

    def test_any_of_value_identifies_event(self, sim):
        got = []
        def proc():
            event, value = yield sim.any_of(
                [sim.timeout(5.0, value="slow"),
                 sim.timeout(1.0, value="fast")])
            got.append(value)
        sim.process(proc())
        sim.run()
        assert got == ["fast"]

    def test_mixed_simulators_rejected(self, sim):
        other = Simulator()
        with pytest.raises(SimulationError):
            sim.all_of([sim.timeout(1.0), other.timeout(1.0)])


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        def run_once():
            sim = Simulator()
            log = []
            def worker(name, delay, repeats):
                for _ in range(repeats):
                    yield sim.timeout(delay)
                    log.append((sim.now, name))
            for i in range(5):
                sim.process(worker(f"w{i}", 0.1 * (i + 1), 10))
            sim.run()
            return log
        assert run_once() == run_once()
