"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main, parse_scale


class TestParseScale:
    def test_fraction_syntax(self):
        assert parse_scale("1/32") == pytest.approx(1 / 32)

    def test_decimal_syntax(self):
        assert parse_scale("0.25") == pytest.approx(0.25)

    def test_unit(self):
        assert parse_scale("1") == 1.0

    def test_out_of_range(self):
        import argparse
        with pytest.raises(argparse.ArgumentTypeError):
            parse_scale("2")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_scale("0")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_requires_arch_and_task(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--task", "select"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--arch", "active"])

    def test_unknown_task_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--arch", "active", "--task", "vacuum"])

    def test_bad_task_list_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "fig1", "--tasks", "select,vacuum"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "select" in out and "active" in out

    def test_run(self, capsys):
        assert main(["run", "--arch", "active", "--disks", "8",
                     "--task", "select", "--scale", "1/256"]) == 0
        out = capsys.readouterr().out
        assert "elapsed" in out and "phase scan" in out

    def test_run_with_variants(self, capsys):
        assert main(["run", "--arch", "active", "--disks", "8",
                     "--task", "sort", "--scale", "1/256",
                     "--memory-mb", "64", "--restricted"]) == 0
        out = capsys.readouterr().out
        assert "frontend_relay_bytes" in out

    def test_run_fibreswitch(self, capsys):
        assert main(["run", "--arch", "active", "--disks", "8",
                     "--task", "sort", "--scale", "1/256",
                     "--fibreswitch", "4"]) == 0


class TestHarnessCommands:
    def test_doctor(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["doctor"]) == 0
        out = capsys.readouterr().out
        assert "python >= 3.10" in out
        assert "smoke: select on active" in out
        assert "checks passed" in out

    def test_sweep_writes_artifacts_and_manifest(self, capsys, tmp_path):
        out_dir = str(tmp_path / "results")
        assert main(["sweep", "fig1", "--sizes", "4", "--tasks", "select",
                     "--scale", "1/256", "--out-dir", out_dir]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "harness:" in out
        from repro.experiments import verify_manifest
        assert verify_manifest(out_dir) == []
        assert (tmp_path / "results" / "fig1.csv").exists()
        assert (tmp_path / "results" / "fig1.journal.jsonl").exists()

    def test_resume_completed_sweep_is_all_cache_hits(self, capsys,
                                                      tmp_path):
        out_dir = str(tmp_path / "results")
        assert main(["sweep", "fig1", "--sizes", "4", "--tasks", "select",
                     "--scale", "1/256", "--out-dir", out_dir]) == 0
        first = capsys.readouterr().out
        journal = str(tmp_path / "results" / "fig1.journal.jsonl")
        assert main(["resume", journal]) == 0
        second = capsys.readouterr().out
        assert "resumed" in second
        # the re-rendered figure is identical to the first run's
        assert [line for line in first.splitlines() if "|" in line] == \
               [line for line in second.splitlines() if "|" in line]

    def test_resume_missing_journal_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["resume"])   # journal path is required
        assert main(["resume", str(tmp_path / "nope.jsonl")]) == 1
