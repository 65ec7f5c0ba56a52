"""Tests of the benchmark itself (not part of the repository's suite).

Run from the root of a checkout::

    python3 -m pytest -q e2ebench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import passes  # noqa: E402
from tracing import LAYERS, attribute, layer_of  # noqa: E402


def run_bench(*args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
        stdin=subprocess.DEVNULL, env=env)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class AttributionTest(unittest.TestCase):
    def test_layers_from_paths(self):
        base = os.path.join(os.sep, "x", "src", "repro")
        self.assertEqual(layer_of(os.path.join(base, "sim", "core.py")),
                         "sim")
        self.assertEqual(layer_of(os.path.join(base, "cli.py")), "other")
        self.assertEqual(layer_of(os.path.join(base, "faults", "plan.py")),
                         "other")
        self.assertIsNone(layer_of("~"))
        self.assertIsNone(layer_of("/usr/lib/python3.11/json/encoder.py"))

    def test_outside_time_goes_to_callers(self):
        src = os.path.join(os.sep, "x", "src", "repro")
        sim = (os.path.join(src, "sim", "core.py"), 1, "run")
        disk = (os.path.join(src, "disk", "drive.py"), 1, "serve")
        helper = ("/usr/lib/python3.11/heapq.py", 1, "helper")
        builtin = ("~", 0, "<built-in method len>")
        stats = {
            sim: (1, 1, 2.0, 10.0, {}),
            disk: (1, 1, 3.0, 5.0, {sim: (1, 1, 3.0, 5.0)}),
            # helper: reached 3:1 (by cumulative time) from sim and disk.
            helper: (4, 4, 1.0, 2.0, {sim: (3, 3, 0.75, 1.5),
                                      disk: (1, 1, 0.25, 0.5)}),
            builtin: (9, 9, 2.0, 2.0, {helper: (8, 8, 1.0, 1.0),
                                       disk: (1, 1, 1.0, 1.0)}),
        }
        out = attribute(stats)
        self.assertAlmostEqual(out["sim"], 2.0 + 0.75 + 0.75)
        self.assertAlmostEqual(out["disk"], 3.0 + 0.25 + 0.25 + 1.0)
        self.assertAlmostEqual(sum(out.values()), 8.0)
        self.assertEqual(set(out), set(LAYERS) | {"other"})


class ReferenceTest(unittest.TestCase):
    """A perturbed reference must surface as failed cells."""

    def setUp(self):
        self.scratch = os.path.join(ROOT, ".bench_work", "test-refs")
        shutil.rmtree(self.scratch, ignore_errors=True)
        self.refs = os.path.join(self.scratch, "refs")
        shutil.copytree(passes.REFS_DIR, self.refs)

    def tearDown(self):
        shutil.rmtree(self.scratch)

    def perturb(self, name: str, change) -> None:
        path = os.path.join(self.refs, name)
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
        change(data)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)

    def run_workload(self, workload: str, seed: int) -> "passes.Pass":
        """One untraced pass, in this process, against ``self.refs``."""
        p = passes.Pass(seed, False, os.path.join(self.scratch, "work"),
                        self.refs)
        os.makedirs(p.work_dir)
        for _ in passes.WORKLOADS[workload](p):
            pass
        return p

    def test_traffic_reference(self):
        def change(data):
            data["seeds"]["3"]["active@1.5"]["shed"] += 1
        self.perturb("traffic_mix.json", change)
        p = self.run_workload("traffic_mix", 23)
        self.assertEqual((p.attempted, p.failed), (6, 1))
        self.assertGreater(p.failed / p.attempted, 0)

    def test_sweep_reference(self):
        def change(data):
            data["artifacts"]["fig5.csv"] = "0" * 64
        self.perturb("sweep.json", change)
        p = self.run_workload("sweep_journal", 1)
        # Every fig5 cell fails with its artifact.
        self.assertEqual((p.attempted, p.failed), (288, 48))

    def test_unperturbed_service_passes(self):
        result = result_of(run_bench("--workload", "service_sweep",
                                     "--seed", "2", "--seconds", "1"))
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(result["attempted"], 288)


class GuardTest(unittest.TestCase):
    def test_refuses_repro_overrides(self):
        env = dict(os.environ, REPRO_SIM_QUEUE="heap")
        proc = run_bench("--workload", "sweep_journal", "--seed", "1",
                         "--seconds", "1", env=env)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
