"""Tests for the command-line interface."""

import os
import subprocess
import sys

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

    def test_help_prints_on_an_ascii_stdout(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        paths = [src] + ([os.environ["PYTHONPATH"]]
                         if os.environ.get("PYTHONPATH") else [])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths),
                   PYTHONIOENCODING="ascii")
        done = subprocess.run([sys.executable, "-m", "repro", "--help"],
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert done.returncode == 0, done.stderr
        assert "usage: repro" in done.stdout


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


    @pytest.mark.parametrize("variant", [["--interconnect-mb", "400"],
                                         ["--memory-mb", "64"]],
                             ids=["interconnect", "memory"])
    def test_run_rejects_a_variant_the_arch_lacks(self, capsys, variant):
        assert main(["run", "--arch", "cluster", "--disks", "8",
                     "--task", "select", "--scale", "1/1024",
                     *variant]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "cluster" in lines[0]
        assert variant[0][2:].replace("-", "_") in lines[0]


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

    @pytest.mark.parametrize("argv", [
        ["build", "--jobs", "0"],
        ["sweep", "fig1", "--sizes", "2", "--tasks", "select",
         "--timeout", "0"],
        ["sweep", "fig1", "--sizes", "2", "--tasks", "select",
         "--memory-budget", "0"],
    ], ids=["build-jobs", "sweep-timeout", "sweep-memory-budget"])
    def test_rejected_pool_option_writes_no_journal(self, argv, tmp_path,
                                                    capsys):
        assert main(argv + ["--scale", "1/4096",
                            "--out-dir", str(tmp_path)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert list(tmp_path.rglob("*.journal.jsonl")) == []

    @pytest.mark.parametrize("flag", [["--jobs", "0"], ["--timeout", "0"],
                                      ["--memory-budget", "0"]],
                             ids=["jobs", "timeout", "memory-budget"])
    def test_traffic_rejects_a_bad_harness_flag(self, flag, tmp_path,
                                                capsys):
        assert main(["traffic", "--arch", "active", "--sessions", "10",
                     "--loads", "0.5", "--out-dir", str(tmp_path)]
                    + flag) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert list(tmp_path.iterdir()) == []

    def test_resume_missing_journal_fails(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(["resume"])   # journal path is required
        assert main(["resume", str(tmp_path / "nope.jsonl")]) == 1
