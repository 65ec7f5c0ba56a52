"""Calibration-drift alarm: fresh results vs. the checked-in baseline.

``baselines/fig1_small.json`` stores the simulator's output for a small
deterministic workload. Simulations are seed-free and deterministic, so
a fresh run must reproduce the file byte for byte, and any drift is a
*code change* touching the models — this test makes such changes
visible and deliberate (regenerate with the snippet in
``baselines/README.md`` when a drift is intended).
"""

import json
import pathlib

import pytest

from repro.experiments import fig1_rows, rows_to_json, run_fig1

BASELINE = (pathlib.Path(__file__).resolve().parent.parent
            / "baselines" / "fig1_small.json")


@pytest.fixture(scope="module")
def fresh_rows():
    result = run_fig1(sizes=(8,), tasks=("select", "sort", "groupby"),
                      scale=1 / 256)
    return fig1_rows(result)


class TestBaseline:
    def test_baseline_exists_and_parses(self):
        rows = json.loads(BASELINE.read_text())
        assert len(rows) == 9
        assert {"task", "arch", "elapsed_s"} <= set(rows[0])

    def test_no_unintended_drift(self, fresh_rows):
        assert rows_to_json(fresh_rows).encode() == BASELINE.read_bytes(), (
            "simulator output drifted from baselines/fig1_small.json "
            "— if intentional, regenerate the baseline")

    def test_cell_count_stable(self, fresh_rows):
        baseline = json.loads(BASELINE.read_text())
        assert len(fresh_rows) == len(baseline)

    def test_determinism_of_fresh_run(self, fresh_rows):
        again = fig1_rows(run_fig1(sizes=(8,),
                                   tasks=("select", "sort", "groupby"),
                                   scale=1 / 256))
        for a, b in zip(fresh_rows, again):
            assert a["elapsed_s"] == b["elapsed_s"]
