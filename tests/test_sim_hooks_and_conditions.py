"""Sim-core edge cases the telemetry hooks rely on.

Covers: Simulator lifecycle-hook invocation order, AnyOf/AllOf
completion ordering and process termination mid-span.
"""

import pytest

from repro.sim import AllOf, AnyOf, Interrupt, Simulator
from repro.telemetry import Telemetry


class TestLifecycleHooks:
    def test_hooks_run_in_registration_order(self):
        sim = Simulator()
        calls = []

        class Hook:
            def __init__(self, tag):
                self.tag = tag

            def run_started(self, s):
                calls.append(("started", self.tag))

            def run_finished(self, s):
                calls.append(("finished", self.tag))

        sim.add_hook(Hook("a"))
        sim.add_hook(Hook("b"))

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()
        assert calls == [("started", "a"), ("started", "b"),
                         ("finished", "a"), ("finished", "b")]

    def test_add_hook_is_idempotent(self):
        sim = Simulator()
        calls = []

        class Hook:
            def run_started(self, s):
                calls.append("started")

        hook = Hook()
        sim.add_hook(hook)
        sim.add_hook(hook)
        sim.run()
        assert calls == ["started"]

    def test_partial_hooks_tolerated(self):
        sim = Simulator()
        calls = []

        class StartOnly:
            def run_started(self, s):
                calls.append("start")

        class FinishOnly:
            def run_finished(self, s):
                calls.append("finish")

        sim.add_hook(StartOnly())
        sim.add_hook(FinishOnly())
        sim.run()
        assert calls == ["start", "finish"]

    def test_run_finished_fires_even_when_a_process_raises(self):
        sim = Simulator()
        calls = []

        class Hook:
            def run_finished(self, s):
                calls.append("finished")

        sim.add_hook(Hook())

        def boom():
            yield sim.timeout(1.0)
            raise RuntimeError("boom")

        sim.process(boom())
        with pytest.raises(RuntimeError):
            sim.run()
        assert calls == ["finished"]

    def test_hooks_fire_per_run_call(self):
        sim = Simulator()
        calls = []

        class Hook:
            def run_started(self, s):
                calls.append("started")

        sim.add_hook(Hook())

        def proc():
            yield sim.timeout(1.0)
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run(until=0.5)
        sim.run()
        assert calls == ["started", "started"]


class TestConditionOrdering:
    def test_anyof_value_is_first_completion(self):
        sim = Simulator()
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(2.0, value="slow")
        results = []

        def waiter():
            event, value = yield sim.any_of([slow, fast])
            results.append((event is fast, value, sim.now))

        sim.process(waiter())
        sim.run()
        assert results == [(True, "fast", 1.0)]

    def test_anyof_tie_resolved_by_schedule_order(self):
        # Two events at the same instant: the one scheduled first wins,
        # deterministically.
        sim = Simulator()
        first = sim.timeout(1.0, value="first")
        second = sim.timeout(1.0, value="second")
        results = []

        def waiter():
            _, value = yield sim.any_of([second, first])
            results.append(value)

        sim.process(waiter())
        sim.run()
        assert results == ["first"]

    def test_allof_values_in_construction_order(self):
        # Events fire out of order; the AllOf value list preserves
        # construction order (what phase-boundary snapshots rely on).
        sim = Simulator()
        a = sim.timeout(3.0, value="a")
        b = sim.timeout(1.0, value="b")
        c = sim.timeout(2.0, value="c")
        results = []

        def waiter():
            values = yield sim.all_of([a, b, c])
            results.append((values, sim.now))

        sim.process(waiter())
        sim.run()
        assert results == [(["a", "b", "c"], 3.0)]

    def test_allof_fires_only_after_the_last(self):
        sim = Simulator()
        events = [sim.timeout(t) for t in (1.0, 5.0, 3.0)]
        done_at = []

        def waiter():
            yield AllOf(sim, events)
            done_at.append(sim.now)

        sim.process(waiter())
        sim.run()
        assert done_at == [5.0]

    def test_empty_conditions_fire_immediately(self):
        sim = Simulator()
        results = []

        def waiter():
            values = yield AllOf(sim, [])
            results.append(values)

        sim.process(waiter())
        sim.run()
        assert results == [[]]
        assert isinstance(AnyOf(sim, []), AnyOf)


class TestProcessTerminationMidSpan:
    def test_interrupted_process_leaves_open_span_flushable(self):
        sim = Simulator()
        tel = Telemetry(sample_interval=None).install(sim)

        def victim():
            handle = tel.spans.begin("host", "work", "cpu.victim")
            try:
                yield sim.timeout(10.0)
            except Interrupt:
                pass
            finally:
                # The span is deliberately never ended: the process dies
                # mid-activity, as an interrupted disklet would.
                del handle

        def killer(process):
            yield sim.timeout(3.0)
            process.interrupt("preempted")

        process = sim.process(victim())
        sim.process(killer(process))
        sim.run()
        # run_finished flushed the orphan at the end of the run. (The
        # abandoned 10 s timeout stays scheduled, so the run — and hence
        # the flushed duration — extends to t=10.)
        assert not tel.spans.open_spans()
        spans = [s for s in tel.spans.spans if s.name == "work"]
        assert len(spans) == 1
        assert spans[0].ts == 0.0
        assert spans[0].dur == pytest.approx(sim.now)
        assert sim.now == pytest.approx(10.0)

    def test_end_is_idempotent_and_explicit_end_wins(self):
        sim = Simulator()
        tel = Telemetry(sample_interval=None).install(sim)

        def worker():
            handle = tel.spans.begin("host", "step", "cpu.w")
            yield sim.timeout(2.0)
            tel.spans.end(handle)
            tel.spans.end(handle)  # double-end must not duplicate
            yield sim.timeout(4.0)

        sim.process(worker())
        sim.run()
        spans = [s for s in tel.spans.spans if s.name == "step"]
        assert len(spans) == 1
        assert spans[0].dur == pytest.approx(2.0)
