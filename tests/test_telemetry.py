"""Tests for the repro.telemetry observability subsystem."""

import json

import pytest

from repro.sim import Simulator
from repro.telemetry import (
    NULL_TELEMETRY,
    CounterMetric,
    MetricRegistry,
    NullTelemetry,
    SpanRecorder,
    Telemetry,
    chrome_trace,
    metrics_json,
    utilization_summary,
    write_artifacts,
)


class FakeClock:
    def __init__(self, t=0.0):
        self.t = t

    def __call__(self):
        return self.t


class TestMetricRegistry:
    def test_factories_are_get_or_create(self):
        reg = MetricRegistry()
        assert reg.counter("net.bytes") is reg.counter("net.bytes")
        assert reg.gauge("q") is reg.gauge("q")
        assert reg.histogram("h") is reg.histogram("h")
        assert reg.series("s") is reg.series("s")
        assert len(reg) == 4

    def test_kind_conflict_raises(self):
        reg = MetricRegistry()
        reg.counter("disk.0.bytes")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("disk.0.bytes")

    def test_counter_is_monotone(self):
        counter = CounterMetric("c")
        counter.add(3.0)
        counter.add()
        assert counter.value == 4.0
        with pytest.raises(ValueError):
            counter.add(-1.0)

    def test_histogram_quantiles_and_snapshot(self):
        reg = MetricRegistry()
        hist = reg.histogram("lat", bounds=(0.1, 1.0, 10.0))
        for v in (0.05, 0.5, 0.5, 5.0):
            hist.observe(v)
        snap = hist.snapshot()
        assert snap["count"] == 4.0
        assert snap["mean"] == pytest.approx(1.5125)
        assert snap["min"] == 0.05 and snap["max"] == 5.0
        # Exact streaming quantiles: nearest-rank over the reservoir,
        # not a bucket upper bound.
        assert hist.quantile(0.5) == pytest.approx(0.5)
        assert snap["p99"] == pytest.approx(5.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_histogram_bucket_fallback_without_reservoir(self):
        reg = MetricRegistry()
        hist = reg.histogram("lat0", bounds=(0.1, 1.0, 10.0), reservoir=0)
        for v in (0.05, 0.5, 0.5, 5.0):
            hist.observe(v)
        # reservoir=0 keeps the historical bucket-upper-bound estimate.
        assert hist.quantile(0.5) == pytest.approx(1.0)
        assert not hist.exact

    def test_histogram_exact_until_reservoir_overflows(self):
        import random
        hist = MetricRegistry().histogram("h", reservoir=64)
        values = [random.Random(3).random() for _ in range(50)]
        for v in values:
            hist.observe(v)
        assert hist.exact
        ordered = sorted(values)
        assert hist.quantile(0.5) == ordered[24]   # ceil(0.5*50)-1
        assert hist.quantile(0.95) == ordered[47]  # ceil(0.95*50)-1
        assert hist.quantile(0.0) == ordered[0]
        assert hist.quantile(1.0) == ordered[-1]

    def test_histogram_reservoir_quantiles_are_deterministic(self):
        import random

        def fill(registry):
            hist = registry.histogram("sojourn", reservoir=128)
            source = random.Random(11)
            for _ in range(5000):
                hist.observe(source.expovariate(1.0))
            return hist

        first, second = fill(MetricRegistry()), fill(MetricRegistry())
        assert not first.exact
        for q in (0.5, 0.95, 0.99):
            assert first.quantile(q) == second.quantile(q)

    def test_series_time_weighted_average_and_peak(self):
        clock = FakeClock()
        reg = MetricRegistry(clock=clock)
        series = reg.series("q")
        clock.t = 1.0
        series.set(4.0)
        clock.t = 3.0
        series.set(0.0)
        clock.t = 4.0
        # 0 for 1s, 4 for 2s, 0 for 1s -> 8/4
        assert series.average() == pytest.approx(2.0)
        assert series.peak == 4.0

    def test_series_created_mid_run_averages_over_lifetime(self):
        clock = FakeClock(t=10.0)
        reg = MetricRegistry(clock=clock)
        series = reg.series("late", initial=6.0)
        clock.t = 15.0
        assert series.average() == pytest.approx(6.0)

    def test_bound_metric_reads_through(self):
        reg = MetricRegistry()
        state = {"v": 1.0}
        bound = reg.bind("util", lambda: state["v"])
        assert bound.value == 1.0
        state["v"] = 0.25
        assert reg.snapshot()["util"]["value"] == 0.25

    def test_match_glob(self):
        reg = MetricRegistry()
        for i in range(3):
            reg.counter(f"disk.{i}.busy.seek")
        reg.counter("bus.fc.bytes")
        names = [m.name for m in reg.match("disk.*.busy.seek")]
        assert names == ["disk.0.busy.seek", "disk.1.busy.seek",
                         "disk.2.busy.seek"]
        assert reg.match("nothing.*") == []

    def test_get_and_names(self):
        reg = MetricRegistry()
        reg.counter("b")
        reg.counter("a")
        assert reg.names() == ["a", "b"]
        assert reg.get("a").name == "a"
        assert "a" in reg
        with pytest.raises(KeyError):
            reg.get("missing")

    def test_as_rows_flat_view(self):
        reg = MetricRegistry()
        reg.counter("bytes").add(10)
        reg.histogram("lat").observe(0.5)
        rows = dict(reg.as_rows())
        assert rows["bytes"] == 10.0
        assert rows["lat.count"] == 1.0
        assert "lat.p95" in rows


class TestSpanRecorder:
    def test_complete_and_busy_by_track(self):
        rec = SpanRecorder(clock=FakeClock())
        rec.complete("disk", "seek", "disk.0", ts=1.0, dur=0.5)
        rec.complete("disk", "xfer", "disk.0", ts=1.5, dur=1.0)
        rec.complete("bus", "xfer", "bus.fc", ts=0.0, dur=0.25)
        assert rec.busy_by_track() == {"disk.0": 1.5, "bus.fc": 0.25}
        assert rec.tracks() == ["disk.0", "bus.fc"]
        with pytest.raises(ValueError):
            rec.complete("disk", "bad", "disk.0", ts=0.0, dur=-1.0)

    def test_begin_end_uses_clock(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock)
        handle = rec.begin("host", "work", "cpu.0", args={"n": 1})
        clock.t = 2.5
        rec.end(handle)
        assert len(rec.spans) == 1
        span = rec.spans[0]
        assert span.ts == 0.0 and span.dur == 2.5
        assert span.args == {"n": 1}
        assert not rec.open_spans()

    def test_flush_open_closes_orphans(self):
        clock = FakeClock()
        rec = SpanRecorder(clock=clock)
        rec.begin("host", "a", "cpu.0")
        clock.t = 1.0
        rec.begin("host", "b", "cpu.1")
        assert len(rec.open_spans()) == 2
        assert rec.flush_open(4.0) == 2
        assert not rec.open_spans()
        durs = {s.name: s.dur for s in rec.spans}
        assert durs == {"a": 4.0, "b": 3.0}

    def test_window_overlap_semantics(self):
        rec = SpanRecorder(clock=FakeClock())
        rec.complete("d", "early", "t", ts=0.0, dur=1.0)
        rec.complete("d", "mid", "t", ts=2.0, dur=2.0)
        rec.complete("d", "late", "t", ts=10.0, dur=1.0)
        names = [s.name for s in rec.window(1.0, 5.0)]
        assert names == ["early", "mid"]  # 'early' touches t=1.0
        assert [s.name for s in rec.window(5.0, 9.0)] == []
        with pytest.raises(ValueError):
            rec.window(5.0, 1.0)

    def test_max_events_drops_instead_of_growing(self):
        rec = SpanRecorder(clock=FakeClock(), max_events=2)
        rec.complete("d", "a", "t", ts=0.0, dur=1.0)
        rec.instant("d", "hit", "t")
        rec.complete("d", "b", "t", ts=1.0, dur=1.0)
        rec.counter("q", {"value": 1.0})
        assert len(rec) == 2
        assert rec.dropped == 2

    def test_counter_and_instant_explicit_ts(self):
        rec = SpanRecorder(clock=FakeClock(t=9.0))
        rec.instant("d", "hit", "t", ts=3.0)
        rec.counter("q", {"value": 2.0}, ts=4.0)
        rec.instant("d", "hit2", "t")
        assert rec.instants[0].ts == 3.0
        assert rec.counters[0].ts == 4.0
        assert rec.instants[1].ts == 9.0


class TestTelemetryHub:
    def _sim_with_hub(self, **kwargs):
        sim = Simulator()
        tel = Telemetry(**kwargs).install(sim)
        return sim, tel

    def test_install_sets_sim_attribute_and_clock(self):
        sim, tel = self._sim_with_hub(sample_interval=None)
        assert sim.telemetry is tel
        assert tel.enabled

        def proc():
            yield sim.timeout(2.0)
            assert tel.now() == 2.0

        sim.process(proc())
        sim.run()
        assert tel.run_ended_at == 2.0

    def test_install_twice_on_other_sim_rejected(self):
        sim, tel = self._sim_with_hub()
        with pytest.raises(RuntimeError):
            tel.install(Simulator())
        # Re-installing on the same sim is fine (idempotent).
        assert tel.install(sim) is tel

    def test_probe_sampling_records_series_and_counters(self):
        sim, tel = self._sim_with_hub(sample_interval=1.0)
        depth = {"v": 0.0}
        tel.add_probe("disk.queue.depth", lambda: depth["v"])

        def proc():
            yield sim.timeout(2.5)
            depth["v"] = 3.0
            yield sim.timeout(2.5)

        sim.process(proc())
        sim.run()
        series = tel.registry.get("disk.queue.depth")
        assert series.peak == 3.0
        assert 0.0 < series.average() < 3.0
        # Periodic samples at 0,1,...,4, then the final sample at the
        # last event: no sample lands after the run.
        sample_ts = [c.ts for c in tel.spans.counters]
        assert sample_ts == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert tel.probe_names() == ["disk.queue.depth"]

    def test_sampler_does_not_extend_the_run(self):
        sim, tel = self._sim_with_hub(sample_interval=10.0)
        tel.add_probe("p", lambda: 1.0)

        def proc():
            yield sim.timeout(3.0)

        sim.process(proc())
        sim.run()
        # Sampling schedules no event: the run ends at its last event.
        assert sim.now == 3.0
        assert tel.run_ended_at == 3.0

    def test_probe_zero_division_clamped(self):
        sim, tel = self._sim_with_hub(sample_interval=None)
        tel.add_probe("bad", lambda: 1.0 / 0.0)
        sim.run()
        assert tel.registry.get("bad").value == 0.0

    def test_utilization_from_spans(self):
        sim, tel = self._sim_with_hub(sample_interval=None)

        def proc():
            start = sim.now
            yield sim.timeout(1.0)
            tel.spans.complete("disk", "xfer", "disk.0", start, 1.0)
            yield sim.timeout(3.0)

        sim.process(proc())
        sim.run()
        assert tel.utilization("disk.0") == pytest.approx(0.25)
        assert tel.utilization("missing") == 0.0

    def test_invalid_sample_interval(self):
        with pytest.raises(ValueError):
            Telemetry(sample_interval=0.0)


class TestNullTelemetry:
    def test_null_is_disabled_and_inert(self):
        tel = NullTelemetry()
        assert not tel.enabled
        tel.add_probe("x", lambda: 1.0)
        handle = tel.spans.begin("d", "a", "t")
        tel.spans.end(handle)
        tel.spans.complete("d", "a", "t", 0.0, 1.0)
        tel.spans.instant("d", "a", "t")
        assert len(tel.spans) == 0
        assert tel.probe_names() == []
        assert tel.utilization("t") == 0.0

    def test_simulator_defaults_to_null(self):
        sim = Simulator()
        assert sim.telemetry is NULL_TELEMETRY
        assert not sim.telemetry.enabled


class TestExporters:
    def _traced_hub(self):
        sim = Simulator()
        tel = Telemetry(sample_interval=None).install(sim)
        tel.meta["task"] = "sort"

        def proc():
            start = sim.now
            yield sim.timeout(0.5)
            tel.spans.complete("disk", "seek", "disk.0", start, 0.5)
            tel.spans.instant("disk", "cache hit", "disk.0")
            tel.registry.counter("disk.0.bytes").add(4096)
            yield sim.timeout(0.5)
            tel.spans.complete("bus", "xfer", "bus.fc", 0.5, 0.5,
                              args={"nbytes": 4096})
            tel.spans.counter("disk.queue", {"value": 2.0})

        sim.process(proc())
        sim.run()
        return tel

    def test_chrome_trace_structure(self):
        tel = self._traced_hub()
        doc = chrome_trace(tel)
        events = doc["traceEvents"]
        assert events, "trace must be non-empty"
        json.dumps(doc)  # must be serializable as-is
        phases = {e["ph"] for e in events}
        assert {"M", "X", "i", "C"} <= phases
        # Timestamps are microseconds.
        seek = next(e for e in events
                    if e["ph"] == "X" and e["name"] == "seek")
        assert seek["ts"] == 0.0 and seek["dur"] == 0.5e6
        xfer = next(e for e in events
                    if e["ph"] == "X" and e["name"] == "xfer")
        assert xfer["args"] == {"nbytes": 4096}
        # Tracks get thread_name metadata; different cats, different pids.
        meta = {e["args"]["name"]: e["pid"] for e in events
                if e["ph"] == "M"}
        assert set(meta) == {"disk.0", "bus.fc"}
        assert meta["disk.0"] != meta["bus.fc"]
        assert doc["otherData"]["task"] == "sort"

    def test_metrics_json_structure(self):
        tel = self._traced_hub()
        doc = metrics_json(tel)
        json.dumps(doc)
        assert doc["elapsed"] == 1.0
        assert doc["metrics"]["disk.0.bytes"]["value"] == 4096.0
        assert doc["tracks"]["disk.0"]["utilization"] == pytest.approx(0.5)
        assert doc["span_counts"]["spans"] == 2
        assert doc["span_counts"]["dropped"] == 0

    def test_utilization_summary_text(self):
        tel = self._traced_hub()
        text = utilization_summary(tel)
        assert "disk.0" in text
        assert "50.0%" in text

    def test_write_artifacts(self, tmp_path):
        tel = self._traced_hub()
        paths = write_artifacts(tel, str(tmp_path), prefix="test")
        with open(paths["trace"]) as handle:
            doc = json.load(handle)
        assert doc["traceEvents"]
        with open(paths["metrics"]) as handle:
            assert json.load(handle)["elapsed"] == 1.0
        with open(paths["summary"]) as handle:
            assert "disk.0" in handle.read()

    def test_chrome_trace_flushes_open_spans(self):
        sim = Simulator()
        tel = Telemetry(sample_interval=None).install(sim)
        tel.spans.begin("host", "stuck", "cpu.0")
        doc = chrome_trace(tel)
        names = [e["name"] for e in doc["traceEvents"] if e["ph"] == "X"]
        assert "stuck" in names
        assert not tel.spans.open_spans()


class TestInstrumentedRun:
    """End-to-end: a tiny instrumented simulation of each architecture."""

    @pytest.mark.parametrize("arch", ["active", "cluster", "smp"])
    def test_sort_run_produces_spans(self, arch):
        from repro.experiments.runner import config_for, run_task

        tel = Telemetry(sample_interval=0.5)
        result = run_task(config_for(arch, num_disks=2), "sort",
                          scale=1 / 1024, telemetry=tel)
        assert result.elapsed > 0
        assert len(tel.spans.spans) > 0
        cats = {s.cat for s in tel.spans.spans}
        assert "disk" in cats
        assert "host" in cats
        assert "phase" in cats
        doc = chrome_trace(tel)
        json.dumps(doc)
        assert doc["traceEvents"]

    @pytest.mark.parametrize("arch, task", [
        ("active", "select"), ("cluster", "sort"), ("smp", "groupby")])
    def test_observing_a_run_does_not_change_it(self, arch, task):
        from repro.experiments import config_for, result_to_dict, run_task

        config = config_for(arch, num_disks=8)
        plain = run_task(config, task, scale=1 / 1024)
        tel = Telemetry()
        observed = run_task(config, task, scale=1 / 1024, telemetry=tel)
        assert tel.probe_names()
        assert result_to_dict(observed) == result_to_dict(plain)
        assert tel.run_ended_at == observed.elapsed

    def test_disabled_run_records_nothing(self):
        from repro.experiments.runner import config_for, run_task

        result = run_task(config_for("active", num_disks=2), "sort",
                          scale=1 / 1024)
        assert result.elapsed > 0
        assert len(NULL_TELEMETRY.spans) == 0
        assert len(NULL_TELEMETRY.registry) == 0
