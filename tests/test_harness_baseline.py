"""Baseline-drift guard exercised through the sweep harness.

Same alarm as ``tests/test_baseline_regression.py`` — fresh simulator
output vs. ``baselines/fig1_small.json`` — but the sweep runs through a
journaled ``SweepRunner``, so the journal write/replay path is covered
by a tier-1 test: the harness must neither perturb results nor lose
precision when cells are reloaded from the journal.
"""

import pathlib

import pytest

from repro.experiments import SweepRunner, fig1_rows, rows_to_json, run_fig1

BASELINE = (pathlib.Path(__file__).resolve().parent.parent
            / "baselines" / "fig1_small.json")

SWEEP = dict(sizes=(8,), tasks=("select", "sort", "groupby"),
             scale=1 / 256)


@pytest.fixture(scope="module")
def journal_path(tmp_path_factory):
    return str(tmp_path_factory.mktemp("harness") / "fig1.journal.jsonl")


@pytest.fixture(scope="module")
def harness_rows(journal_path):
    runner = SweepRunner(journal_path)
    rows = fig1_rows(run_fig1(runner=runner, **SWEEP))
    assert runner.counters["completed"] == 9
    return rows


class TestHarnessBaseline:
    def test_no_drift_through_the_harness(self, harness_rows):
        assert rows_to_json(harness_rows).encode() == BASELINE.read_bytes(), (
            "harness-run sweep drifted from baselines/fig1_small.json")

    def test_journal_replay_is_bit_identical(self, journal_path,
                                             harness_rows):
        runner = SweepRunner(journal_path)
        replayed = fig1_rows(run_fig1(runner=runner, **SWEEP))
        assert runner.counters["resumed_cells"] == 9
        assert runner.counters["completed"] == 0
        for fresh, cached in zip(harness_rows, replayed):
            assert fresh == cached   # exact, not approx

    def test_harness_matches_inline_run(self, harness_rows):
        inline = fig1_rows(run_fig1(**SWEEP))
        for a, b in zip(inline, harness_rows):
            assert a["elapsed_s"] == b["elapsed_s"]
