"""Tests for the perf benchmark suite: schema, comparison, identity guard.

The timing numbers themselves are machine-dependent and not asserted;
what these tests pin down is the *contract* — result schema, JSON suite
documents, baseline comparison math, and the Figure 1 byte-identity
guard's ability to detect drift.
"""

import json

import pytest

from repro.perfbench.e2e import (
    FIG1_BASELINE,
    IdentityDrift,
    fig1_identity_check,
)
from repro.perfbench.kernel import KERNEL_BENCHMARKS, run_kernel_suite
from repro.perfbench.report import (
    BenchResult,
    compare_suites,
    load_suite,
    render_comparison,
    suite_document,
    write_suite,
)


class TestKernelSuite:
    def test_quick_suite_schema(self):
        results = run_kernel_suite(quick=True)
        assert [r.name for r in results] == list(KERNEL_BENCHMARKS)
        for result in results:
            assert result.wall_s > 0
            assert result.events > 0, f"{result.name} reported no events"
            assert result.events_per_sec > 0
            assert result.extras["procs"] > 0
            assert result.extras["rounds"] > 0

    def test_benchmarks_are_deterministic_in_events(self):
        # The event count is a property of the workload, not the clock:
        # two runs of the same shape process identical event totals.
        first = {r.name: r.events for r in run_kernel_suite(quick=True)}
        second = {r.name: r.events for r in run_kernel_suite(quick=True)}
        assert first == second


class TestReportSchema:
    def test_result_json_roundtrip(self):
        result = BenchResult(name="demo", wall_s=0.5, events=1000,
                             repeats=3, peak_rss_kb=4096,
                             extras={"procs": 8.0})
        doc = result.to_json()
        assert doc["name"] == "demo"
        assert doc["events_per_sec"] == 2000.0
        assert doc["procs"] == 8.0
        json.dumps(doc)  # must be JSON-serializable as-is

    def test_suite_document_and_file_roundtrip(self, tmp_path):
        results = [BenchResult(name="a", wall_s=0.1, events=10)]
        document = suite_document("kernel", results, quick=True)
        assert document["suite"] == "kernel"
        assert document["quick"] is True
        assert len(document["benchmarks"]) == 1
        path = tmp_path / "BENCH_kernel.json"
        write_suite(str(path), document)
        assert load_suite(str(path)) == document

    def test_compare_suites_speedup_math(self):
        baseline = {"benchmarks": [
            {"name": "a", "wall_s": 1.0, "events_per_sec": 100.0},
            {"name": "only_in_baseline", "wall_s": 9.0},
        ]}
        current = {"benchmarks": [
            {"name": "a", "wall_s": 0.5, "events_per_sec": 200.0},
            {"name": "only_in_current", "wall_s": 1.0},
        ]}
        rows = compare_suites(baseline, current)
        assert len(rows) == 1
        assert rows[0]["name"] == "a"
        assert rows[0]["wall_speedup"] == pytest.approx(2.0)
        assert rows[0]["events_per_sec_ratio"] == pytest.approx(2.0)

    def test_render_comparison(self):
        rows = compare_suites(
            {"benchmarks": [{"name": "a", "wall_s": 1.0}]},
            {"benchmarks": [{"name": "a", "wall_s": 0.5}]})
        text = render_comparison(rows)
        assert "a" in text and "2.00x" in text
        assert render_comparison([]) == "no overlapping benchmarks to compare"


class TestIdentityGuard:
    def test_baseline_file_exists_with_crlf(self):
        data = FIG1_BASELINE.read_bytes()
        assert b"\r\n" in data
        header = data.split(b"\r\n", 1)[0]
        assert header.split(b",")[:4] == [b"figure", b"task", b"arch",
                                          b"disks"]

    @staticmethod
    def _stub_regeneration(monkeypatch):
        # Replace the (expensive) sweep with a canned reproduction of
        # the baseline's 16-disk subset, so the comparison logic can be
        # exercised in milliseconds.
        import repro.experiments as experiments
        from repro.perfbench import e2e

        lines = e2e._baseline_lines()
        subset = [lines[0]] + [
            line for line in lines[1:]
            if line and line.split(b",")[3] == b"16"] + [b""]
        canned = b"\r\n".join(subset).decode()
        monkeypatch.setattr(experiments, "run_fig1",
                            lambda sizes, scale: None)
        monkeypatch.setattr(experiments, "fig1_rows", lambda result: None)
        monkeypatch.setattr(experiments, "rows_to_csv", lambda rows: canned)
        return lines

    def test_matching_output_passes(self, monkeypatch):
        self._stub_regeneration(monkeypatch)
        report = fig1_identity_check(quick=True)
        assert report["identical"] is True
        assert report["cells"] == 24

    def test_drift_detection(self, monkeypatch):
        # Tamper with one baseline digit (in the elapsed column, past
        # everything the guard parses): the guard must raise, proving it
        # compares content rather than just running.
        from repro.perfbench import e2e

        lines = self._stub_regeneration(monkeypatch)
        tampered = list(lines)
        fields = tampered[1].split(b",")
        fields[-1] = fields[-1] + b"1"
        tampered[1] = b",".join(fields)
        monkeypatch.setattr(e2e, "_baseline_lines", lambda: tampered)
        with pytest.raises(IdentityDrift, match="drifted"):
            fig1_identity_check(quick=True)

    def test_quick_identity_holds(self, quick_fig1_identity):
        # The real thing: regenerate the 16-disk column and byte-compare
        # against results/fig1_arch_comparison.csv.
        report = quick_fig1_identity
        assert report["identical"] is True
        assert report["cells"] == 24
