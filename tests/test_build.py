"""``repro build``: the artifact registry through the journaled harness.

The registry's 18 artifacts declare 479 cells but only 244 distinct
configurations, plus 44 inline simulations: the scorecard's 63 cells
are all figure cells. Every way of building them (inline,
process-parallel, interrupted and resumed) must simulate each
configuration once and write the same bytes.
"""

import os
import pathlib
import subprocess

import pytest

from repro.cli import main
from repro.experiments import (
    ARTIFACTS,
    BUILD_JOURNAL,
    SweepRunner,
    build_artifacts,
    runner as runner_module,
)
from repro.experiments.ablations import ABLATIONS
from repro.invariants import InvariantAuditor, armed

SCALE = 1 / 4096
FILES = sorted([file for artifact in ARTIFACTS.values()
                for file in artifact.files] + ["MANIFEST.json"])
RESULTS = pathlib.Path(__file__).resolve().parent.parent / "results"


def _read(directory, files=FILES):
    return {name: (directory / name).read_bytes() for name in files}


def _count_simulators(monkeypatch):
    """The id of every simulator built from now on, in order. Ids, not
    simulators: a build's worth of kept simulators slows every later
    fork."""
    built = []

    class Counted(runner_module.Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(id(self))
    monkeypatch.setattr(runner_module, "Simulator", Counted)
    return built


@pytest.fixture
def simulators(monkeypatch):
    return _count_simulators(monkeypatch)


@pytest.fixture(scope="module")
def inline(tmp_path_factory):
    out = tmp_path_factory.mktemp("inline")
    runner = SweepRunner(None)
    with pytest.MonkeyPatch.context() as monkeypatch:
        simulated = _count_simulators(monkeypatch)
        build = build_artifacts(str(out), scale=SCALE, runner=runner)
    assert (build.declared, build.distinct, build.inline) == (479, 244, 44)
    # No configuration and no inline simulation runs twice.
    assert len(simulated) == build.distinct + build.inline
    assert runner.counters["scheduled"] == 244
    assert sorted(os.listdir(out)) == FILES
    return _read(out)


def test_registry_owns_every_committed_file():
    """``repro build`` is the one producer of ``results/``: the files it
    declares are exactly the committed ones (git's list where there is
    a checkout, else the directory's files)."""
    try:
        committed = subprocess.run(
            ["git", "ls-files", "."], cwd=RESULTS, check=True,
            capture_output=True, text=True).stdout.split()
    except (OSError, subprocess.CalledProcessError):
        committed = os.listdir(RESULTS)
    assert sorted(set(committed) - {"MANIFEST.json"}) == sorted(
        file for artifact in ARTIFACTS.values() for file in artifact.files)


def test_cells_simulate_nothing(inline, simulators):
    """Declaring the cells runs no simulation; the ``inline`` build
    runs each distinct one once."""
    assert sum(len(artifact.cells(SCALE))
               for artifact in ARTIFACTS.values()) == 479
    assert simulators == []


def test_armed_ablations_audit_every_simulation(inline, simulators,
                                                monkeypatch, tmp_path):
    installs = []
    install = InvariantAuditor.install

    def counted(self, sim):
        installs.append((self.sim is None, id(sim)))
        return install(self, sim)
    monkeypatch.setattr(InvariantAuditor, "install", counted)
    names = [name for name, _, _ in ABLATIONS]
    with armed():
        build_artifacts(str(tmp_path), names, scale=SCALE)
    assert len(installs) == len(simulators) == 24 + 44
    # Each simulator, as it is built, gets a fresh auditor.
    assert [sim for _, sim in installs] == simulators
    assert all(fresh for fresh, _ in installs)
    files = [file for name in names for file in ARTIFACTS[name].files]
    assert _read(tmp_path, files) == {name: inline[name] for name in files}


def test_parallel_build_matches_inline(inline, tmp_path):
    runner = SweepRunner(None, jobs=2)
    build = build_artifacts(str(tmp_path), scale=SCALE, runner=runner)
    assert build.declared == 479
    assert runner.counters["scheduled"] == 244
    assert runner.counters["completed"] == 244
    assert _read(tmp_path) == inline


def test_interrupted_build_finishes_with_resume(inline, tmp_path,
                                                monkeypatch, capsys):
    run = SweepRunner.run

    def interrupted(self, specs, after_cell=None):
        seen = []

        def stop_after_100(outcome):
            seen.append(outcome)
            if len(seen) == 100:
                raise KeyboardInterrupt
        return run(self, specs, after_cell=stop_after_100)

    monkeypatch.setattr(SweepRunner, "run", interrupted)
    argv = ["build", "--scale", "1/4096", "--out-dir", str(tmp_path)]
    assert main(argv) == 130
    journal = tmp_path / BUILD_JOURNAL
    assert f"repro resume {journal}" in capsys.readouterr().err

    monkeypatch.undo()
    assert main(["resume", str(journal)]) == 0
    out = capsys.readouterr().out
    assert "resumed_cells=100" in out
    assert "completed=144" in out
    assert not journal.exists()
    assert _read(tmp_path) == inline


def test_build_refuses_to_start_over_a_journal(tmp_path, capsys):
    (tmp_path / BUILD_JOURNAL).write_text("")
    assert main(["build", "--out-dir", str(tmp_path)]) != 0
    assert "repro resume" in capsys.readouterr().err
    assert os.listdir(tmp_path) == [BUILD_JOURNAL]
