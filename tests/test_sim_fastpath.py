"""Tests for the optimized kernel hot path and its semantic guarantees.

The fast run loop (``Simulator._run_fast``) recycles pooled events and
hoists per-event checks out of the loop; these tests pin down the
behaviours that optimization must not change:

* non-Event yields route through normal process completion (catchable);
* ``step()`` on an empty queue is a clear error, not an IndexError;
* AllOf/AnyOf composites behave across fired/failed/pending mixes,
  including failures arriving after the condition already triggered;
* interrupts racing a same-tick target fire are deterministic;
* ``pause()`` recycling is invisible to simulation results;
* the fast and checked loops produce identical simulations.
"""

import pytest

from repro.sim import (
    Interrupt,
    Server,
    SimulationError,
    Simulator,
    Store,
)


@pytest.fixture
def sim():
    return Simulator()


class TestNonEventYield:
    """A process yielding a non-Event gets SimulationError thrown in."""

    def test_uncaught_bad_yield_fails_the_process(self, sim):
        def bad():
            yield "not an event"

        failures = []

        def waiter():
            try:
                yield sim.process(bad())
            except SimulationError as exc:
                failures.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert len(failures) == 1
        assert "must yield Event" in failures[0]

    def test_bad_yield_without_waiter_aborts_run(self, sim):
        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="must yield Event"):
            sim.run()

    def test_generator_may_catch_and_continue(self, sim):
        log = []

        def resilient():
            try:
                yield object()
            except SimulationError:
                log.append("caught")
            yield sim.timeout(1.0)
            log.append("done")
            return "ok"

        process = sim.process(resilient())
        sim.run()
        assert log == ["caught", "done"]
        assert process.value == "ok"

    def test_generator_may_catch_and_reraise_other(self, sim):
        def stubborn():
            try:
                yield None
            except SimulationError:
                raise ValueError("translated")

        caught = []

        def waiter():
            try:
                yield sim.process(stubborn())
            except ValueError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        sim.run()
        assert caught == ["translated"]

    def test_checked_loop_same_behaviour(self):
        sim = Simulator(debug=True)
        log = []

        def resilient():
            try:
                yield "nope"
            except SimulationError:
                log.append("caught")
            yield sim.timeout(1.0)

        sim.process(resilient())
        sim.run()
        assert log == ["caught"]
        assert sim.now == 1.0


class TestEmptyQueueStep:
    def test_step_on_fresh_simulator(self, sim):
        with pytest.raises(SimulationError, match="empty event queue"):
            sim.step()

    def test_step_after_queue_drained(self, sim):
        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        with pytest.raises(SimulationError, match="empty event queue"):
            sim.step()
        assert sim.now == 1.0  # the failed step did not move the clock


class TestCompositeMixedStates:
    """AllOf/AnyOf across fired / failed-defused / pending components."""

    def test_allof_with_already_fired_component(self, sim):
        done = sim.event()
        done.succeed("early")
        results = []

        def waiter():
            values = yield sim.all_of([done, sim.timeout(2.0, value="late")])
            results.append((values, sim.now))

        sim.process(waiter())
        sim.run()
        assert results == [(["early", "late"], 2.0)]

    def test_anyof_with_already_fired_component(self, sim):
        done = sim.event()
        done.succeed("instant")
        results = []

        def waiter():
            event, value = yield sim.any_of(
                [sim.timeout(5.0), done, sim.timeout(9.0)])
            results.append((event is done, value, sim.now))

        sim.process(waiter())
        sim.run()
        assert results == [(True, "instant", 0.0)]

    def test_allof_component_failure_fails_condition(self, sim):
        # The condition must attach before the failed event is processed
        # (an undefused failure with no observer aborts the run), so it
        # is built eagerly rather than inside the process.
        bad = sim.event()
        bad.fail(RuntimeError("boom"))
        condition = sim.all_of([sim.timeout(1.0), bad])
        caught = []

        def waiter():
            try:
                yield condition
            except RuntimeError as exc:
                caught.append(str(exc))

        sim.process(waiter())
        sim.run()  # the pending timeout still fires harmlessly afterwards
        assert caught == ["boom"]
        assert sim.now == 1.0

    def test_allof_second_failure_after_condition_failed(self, sim):
        # Two components fail at the same tick. The first failure fails
        # the condition; the second must be defused by the already-
        # triggered condition or it would abort the run.
        first, second = sim.event(), sim.event()
        caught = []

        def waiter():
            try:
                yield sim.all_of([first, second])
            except RuntimeError as exc:
                caught.append(str(exc))

        def failer():
            yield sim.timeout(1.0)
            first.fail(RuntimeError("first"))
            second.fail(RuntimeError("second"))

        sim.process(waiter())
        sim.process(failer())
        sim.run()
        assert caught == ["first"]

    def test_anyof_failure_after_condition_fired(self, sim):
        # AnyOf fires on the fast component; the slow component then
        # fails at a later tick and must be defused, not escape.
        fast, slow = sim.event(), sim.event()
        results = []

        def waiter():
            event, value = yield sim.any_of([fast, slow])
            results.append(value)

        def driver():
            yield sim.timeout(1.0)
            fast.succeed("winner")
            yield sim.timeout(1.0)
            slow.fail(RuntimeError("late failure"))

        sim.process(waiter())
        sim.process(driver())
        sim.run()
        assert results == ["winner"]
        assert sim.now == 2.0

    def test_allof_success_after_condition_failed(self, sim):
        # A component succeeding after the condition already failed is
        # simply ignored (pending -> fired transition, no double fire).
        good, bad = sim.event(), sim.event()
        caught = []

        def waiter():
            try:
                yield sim.all_of([good, bad])
            except RuntimeError:
                caught.append(sim.now)

        def driver():
            yield sim.timeout(1.0)
            bad.fail(RuntimeError("early"))
            yield sim.timeout(1.0)
            good.succeed("too late")

        sim.process(waiter())
        sim.process(driver())
        sim.run()
        assert caught == [1.0]

    def test_nested_composites(self, sim):
        results = []

        def waiter():
            inner = sim.all_of([sim.timeout(1.0, value="a"),
                                sim.timeout(2.0, value="b")])
            event, value = yield sim.any_of([inner, sim.timeout(9.0)])
            results.append((value, sim.now))

        sim.process(waiter())
        sim.run()
        assert results == [(["a", "b"], 2.0)]

    def test_pooled_events_rejected_in_composites(self, sim):
        def proc():
            with pytest.raises(SimulationError, match="pooled"):
                sim.all_of([sim.pause(1.0)])
            yield sim.timeout(0.5)

        sim.process(proc())
        sim.run()


class TestInterruptSameTickRace:
    def test_interrupt_scheduled_before_same_tick_fire_wins(self, sim):
        # The controller interrupts the victim and *then* succeeds its
        # wait target, all at t=1.0. The interrupt relay was scheduled
        # first, so the victim sees the Interrupt; the stale callback is
        # removed so the target's fire does not double-resume it.
        target = sim.event()
        log = []

        def victim():
            try:
                yield target
                log.append("fired")
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, sim.now))
            yield sim.timeout(1.0)
            log.append("resumed ok")

        def controller(process):
            yield sim.timeout(1.0)
            process.interrupt("race")
            target.succeed("value")

        process = sim.process(victim())
        sim.process(controller(process))
        sim.run()
        assert log == [("interrupted", "race", 1.0), "resumed ok"]

    def test_interrupt_preempts_already_scheduled_fire(self, sim):
        # Reversed order: succeed() first, then interrupt(). The fire is
        # on the heap but not yet delivered, so interrupt() detaches the
        # victim from it — the Interrupt wins even though the fire was
        # scheduled first. Same-tick interrupts therefore preempt
        # deterministically regardless of scheduling order.
        target = sim.event()
        log = []

        def victim():
            try:
                value = yield target
                log.append(("fired", value))
            except Interrupt as interrupt:
                log.append(("interrupted", interrupt.cause, sim.now))

        def controller(process):
            yield sim.timeout(1.0)
            target.succeed("value")
            process.interrupt("late")

        process = sim.process(victim())
        sim.process(controller(process))
        sim.run()
        assert log == [("interrupted", "late", 1.0)]
        assert target.ok and target.value == "value"

    def test_interrupt_while_waiting_on_pause(self, sim):
        # pause() events are pooled; interrupting a pause-waiter must
        # remove its callback before the timeout is recycled.
        log = []

        def victim():
            try:
                yield sim.pause(10.0)
                log.append("slept")
            except Interrupt:
                log.append(("interrupted", sim.now))
            # wait past the original pause deadline: the orphaned pause
            # event fires (and is recycled) with no callback attached.
            yield sim.pause(20.0)
            log.append("done")

        def controller(process):
            yield sim.timeout(1.0)
            process.interrupt()

        process = sim.process(victim())
        sim.process(controller(process))
        sim.run()
        assert log == [("interrupted", 1.0), "done"]
        assert sim.now == 21.0

    def test_interrupt_finished_process_rejected(self, sim):
        def quick():
            yield sim.timeout(1.0)

        process = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError, match="finished"):
            process.interrupt()


class TestPauseRecycling:
    def test_pause_negative_delay_rejected(self, sim):
        with pytest.raises(SimulationError, match="negative"):
            sim.pause(-1.0)

    def test_pause_objects_are_reused(self, sim):
        identities = []

        def proc():
            for _ in range(4):
                event = sim.pause(1.0)
                identities.append(id(event))
                yield event

        sim.process(proc())
        sim.run()
        # The first pause is allocated fresh; later ones are recycled
        # (the nth is created while the (n-1)th is mid-callback, so the
        # steady state alternates between at most two objects).
        assert len(set(identities)) < len(identities)
        assert sim.now == 4.0

    def test_pause_matches_timeout_semantics(self):
        def workload(sim, sleep):
            def stage(n):
                for _ in range(n):
                    yield sleep(0.25)

            def chain():
                yield sim.process(stage(3))
                yield sleep(0.5)

            sim.process(chain())
            sim.run()
            return sim.now, sim.event_count

        plain = Simulator()
        pooled = Simulator()
        assert workload(plain, plain.timeout) == workload(pooled, pooled.pause)

    def test_recycled_pause_state_is_fresh(self, sim):
        seen = []

        def proc():
            for _ in range(3):
                event = sim.pause(1.0)
                value = yield event
                seen.append((value, event.value, event.ok))

        sim.process(proc())
        sim.run()
        assert seen == [(None, None, True)] * 3


class TestFastCheckedEquivalence:
    """debug=True routes through step(); results must be identical."""

    @staticmethod
    def _workload(sim):
        server = Server(sim, capacity=2)
        store = Store(sim, capacity=4)
        log = []

        def producer():
            for index in range(8):
                yield store.put(index)
                yield sim.pause(0.1)

        def consumer():
            for _ in range(8):
                item = yield store.get()
                yield from server.serve(0.3)
                log.append(item)

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                log.append("woken")

        def waker(process):
            yield sim.timeout(1.0)
            process.interrupt()

        sim.process(producer())
        sim.process(consumer())
        sim.process(waker(sim.process(sleeper())))
        sim.run()
        return sim.now, sim.event_count, log

    def test_identical_results(self):
        fast = self._workload(Simulator())
        checked = self._workload(Simulator(debug=True))
        assert fast == checked

    def test_empty_pool_after_checked_run(self):
        # The checked loop never recycles, so pooled events processed by
        # it simply drop out of the cycle — and must not corrupt pools.
        sim = Simulator(debug=True)

        def proc():
            yield sim.pause(1.0)
            yield sim.pause(1.0)

        sim.process(proc())
        sim.run()
        assert sim._timeout_pool == []
        assert sim.now == 2.0
