"""Traffic cells through the harness: journals, resume, oom budgets."""

import json
import os

import pytest

from repro.arch.base import RunResult
from repro.cli import main
from repro.experiments import SweepJournal, SweepRunner
from repro.experiments.workers import CellSpec, run_cells
from repro.traffic import TrafficConfig, run_traffic_cell, traffic_cell


def tconfig(**overrides):
    base = dict(arch="active", num_disks=16, sessions=200, load=1.5,
                queue_capacity=16)
    base.update(overrides)
    return TrafficConfig(**base)


class TestTrafficCells:
    def test_cellspec_round_trips_traffic_config(self):
        spec = traffic_cell(tconfig(policy="fair-share"))
        clone = CellSpec.from_dict(spec.to_dict())
        assert clone == spec
        assert clone.traffic == spec.traffic
        assert clone.config_hash() == spec.config_hash()

    def test_variant_distinguishes_load_and_policy(self):
        a = traffic_cell(tconfig(load=0.5))
        b = traffic_cell(tconfig(load=1.5))
        c = traffic_cell(tconfig(load=1.5, policy="deadline-drop"))
        assert len({a.key, b.key, c.key}) == 3

    def test_run_traffic_cell_returns_runresult(self):
        result = run_traffic_cell(traffic_cell(tconfig()))
        assert isinstance(result, RunResult)
        assert result.task == "traffic"
        assert result.extras["traffic.arrivals"] == 200.0

    def test_run_cell_dispatches_on_traffic_field(self):
        from repro.experiments.workers import run_cell
        spec = traffic_cell(tconfig())
        assert run_cell(spec).extras == run_traffic_cell(spec).extras

    def test_plain_cell_without_traffic_raises(self):
        with pytest.raises(ValueError, match="no traffic configuration"):
            run_traffic_cell(CellSpec(task="select", arch="active",
                                      num_disks=8))


class TestJournaledTraffic:
    def test_sweep_journals_and_resumes_byte_identically(self, tmp_path):
        journal_path = str(tmp_path / "traffic.journal.jsonl")
        specs = [traffic_cell(tconfig(load=load)) for load in (0.5, 1.5)]
        first = SweepRunner(journal_path).run(specs)

        resumed_runner = SweepRunner(journal_path)
        resumed = resumed_runner.run(specs)
        assert resumed_runner.counters["resumed_cells"] == 2
        assert resumed_runner.counters["completed"] == 0
        for key in first:
            assert resumed[key].extras == first[key].extras

    def test_journal_resume_rebuilds_spec_with_traffic(self, tmp_path):
        journal_path = str(tmp_path / "traffic.journal.jsonl")
        spec = traffic_cell(tconfig())
        SweepRunner(journal_path).run([spec])
        journal = SweepJournal.load(journal_path)
        state = journal.cells[spec.key]
        assert CellSpec.from_dict(state.spec) == spec


def hungry_cell(spec):
    """A cell that allocates far past any sane budget."""
    blob = bytearray(512 * 1024 * 1024)
    blob[0] = 1
    return RunResult(task=spec.task, arch=spec.arch,
                     num_disks=spec.num_disks, elapsed=1.0, phases=[])


class TestMemoryBudget:
    def spec(self):
        return CellSpec(task="select", arch="active", num_disks=8,
                        scale=1 / 256)

    def test_budget_bust_quarantines_as_oom_without_retry(self):
        outcomes = run_cells([self.spec()], cell_fn=hungry_cell,
                             memory_budget_mb=64, retries=3)
        outcome = outcomes[0]
        assert outcome.status == "quarantined"
        assert outcome.oom
        assert outcome.attempts == 1          # deterministic: no retries
        assert "64 MB memory budget" in outcome.error

    def test_within_budget_cell_completes(self):
        outcomes = run_cells([self.spec()], memory_budget_mb=2048)
        assert outcomes[0].status == "done"

    def test_budget_validation(self):
        with pytest.raises(ValueError, match="memory budget"):
            run_cells([self.spec()], memory_budget_mb=0)

    def test_journal_records_oom_and_doctor_reports_it(self, tmp_path,
                                                       capsys):
        journal_path = str(tmp_path / "oom.journal.jsonl")
        journal = SweepJournal(journal_path)
        journal.note_cell("traffic+active+16", "pending",
                          spec=traffic_cell(tconfig()).to_dict(),
                          config_hash="x")
        journal.note_cell("traffic+active+16", "quarantined",
                          error="cell exceeded its 64 MB memory budget",
                          oom=True)
        journal.close()

        loaded = SweepJournal.load(journal_path)
        assert list(loaded.oom_cells()) == ["traffic+active+16"]

        assert main(["doctor", "--journal", journal_path]) == 1
        out = capsys.readouterr().out
        assert "over their memory budget" in out
        assert "oom: traffic+active+16" in out

    def test_runner_counts_and_journals_ooms(self, tmp_path, monkeypatch):
        import repro.experiments.harness as harness_mod
        from repro.experiments.workers import run_ledger as real_run_ledger

        def with_hungry_cells(ledger, **kwargs):
            kwargs["cell_fn"] = hungry_cell
            return real_run_ledger(ledger, **kwargs)

        monkeypatch.setattr(harness_mod, "run_ledger", with_hungry_cells)
        journal_path = str(tmp_path / "oom2.journal.jsonl")
        runner = SweepRunner(journal_path, memory_budget_mb=64,
                             retries=2, strict=False)
        results = runner.run([self.spec()])
        assert results == {}
        assert runner.counters["ooms"] == 1
        assert runner.counters["quarantined"] == 1
        journal = SweepJournal.load(journal_path)
        assert list(journal.oom_cells()) == [self.spec().key]


class TestTrafficCLI:
    def test_traffic_writes_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        assert main(["traffic", "--arch", "active", "--sessions", "300",
                     "--loads", "0.5,1.5", "--out-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "every session accounted once" in out
        assert os.path.exists(os.path.join(out_dir, "traffic.txt"))
        assert os.path.exists(os.path.join(out_dir, "traffic.csv"))
        manifest = json.load(open(os.path.join(out_dir, "MANIFEST.json")))
        assert manifest

    def test_traffic_runs_are_byte_identical(self, tmp_path, capsys):
        texts = []
        for name in ("a", "b"):
            out_dir = str(tmp_path / name)
            assert main(["traffic", "--arch", "active", "--sessions",
                         "300", "--loads", "1.5", "--out-dir",
                         out_dir]) == 0
            with open(os.path.join(out_dir, "traffic.txt")) as handle:
                texts.append(handle.read())
        capsys.readouterr()
        assert texts[0] == texts[1]

    def test_traffic_journal_flag_enables_harness(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        journal_path = str(tmp_path / "t.journal.jsonl")
        assert main(["traffic", "--arch", "active", "--sessions", "200",
                     "--loads", "1.5", "--journal", journal_path,
                     "--out-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "harness:" in out
        journal = SweepJournal.load(journal_path)
        assert journal.counts()["done"] == 1

    def test_doctor_smoke_includes_traffic_percentiles(self, capsys):
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "open-loop traffic (exact quantiles)" in out
        assert "p99" in out

    def test_sweep_knows_traffic_figure(self):
        from repro.cli import FIG_SWEEPS
        assert "traffic" in FIG_SWEEPS
