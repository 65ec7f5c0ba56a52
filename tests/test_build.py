"""``repro build``: the artifact registry through the journaled harness.

The registry's nine artifacts declare 388 cells but only 240 distinct
configurations; every way of building them (inline, process-parallel,
interrupted and resumed) must simulate each configuration once and
write the same bytes.
"""

import os

import pytest

from repro.cli import main
from repro.experiments import (
    ARTIFACTS,
    BUILD_JOURNAL,
    SweepRunner,
    build_artifacts,
)

SCALE = 1 / 4096
FILES = sorted([file for artifact in ARTIFACTS.values()
                for file in artifact.files] + ["MANIFEST.json"])


def _read(directory):
    return {name: (directory / name).read_bytes() for name in FILES}


@pytest.fixture(scope="module")
def inline(tmp_path_factory):
    out = tmp_path_factory.mktemp("inline")
    runner = SweepRunner(None)
    build = build_artifacts(str(out), scale=SCALE, runner=runner)
    assert (build.declared, build.distinct) == (388, 240)
    assert runner.counters["scheduled"] == 240
    assert sorted(os.listdir(out)) == FILES
    return _read(out)


def test_parallel_build_matches_inline(inline, tmp_path):
    runner = SweepRunner(None, jobs=2)
    build = build_artifacts(str(tmp_path), scale=SCALE, runner=runner)
    assert build.declared == 388
    assert runner.counters["scheduled"] == 240
    assert runner.counters["completed"] == 240
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
    assert "completed=140" in out
    assert not journal.exists()
    assert _read(tmp_path) == inline


def test_build_refuses_to_start_over_a_journal(tmp_path, capsys):
    (tmp_path / BUILD_JOURNAL).write_text("")
    assert main(["build", "--out-dir", str(tmp_path)]) != 0
    assert "repro resume" in capsys.readouterr().err
    assert os.listdir(tmp_path) == [BUILD_JOURNAL]
