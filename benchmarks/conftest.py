"""Shared benchmark configuration.

Each module builds its registry artifact inline into a temporary
directory, through one session-wide cache keyed by configuration, and
requires each file to equal the committed one under ``results/`` byte
for byte. Nothing here writes to ``results/``: ``python -m repro build``
is its one producer.
"""

import pathlib

import pytest

from repro.experiments import ARTIFACTS, build_artifacts

RESULTS_DIR = pathlib.Path(__file__).resolve().parent.parent / "results"


@pytest.fixture(scope="session")
def build_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("results")


@pytest.fixture(scope="session")
def artifact(build_dir):
    """``artifact(name)``: build one registry artifact (once) into the
    session's directory and return its result object."""
    cache, built = {}, {}

    def _artifact(name: str):
        if name not in built:
            built[name] = build_artifacts(
                str(build_dir), [name], cache=cache).results[name]
        return built[name]
    return _artifact


@pytest.fixture(scope="session")
def committed(artifact, build_dir):
    """``committed(name)``: build an artifact and require each of its
    files to equal the committed copy under ``results/``."""
    def _check(name: str) -> None:
        artifact(name)
        for file in ARTIFACTS[name].files:
            fresh = (build_dir / file).read_bytes()
            print(f"\n{fresh.decode()}")
            assert fresh == (RESULTS_DIR / file).read_bytes(), (
                f"{file} differs from results/{file}; rebuild with "
                f"'python -m repro build' if the change is intended")
    return _check
