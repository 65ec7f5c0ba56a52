"""Shared benchmark configuration.

Figure and table modules build their registry artifact inline into a
temporary directory, through one session-wide cache keyed by
configuration, and require each file to equal the committed one under
``results/`` byte for byte. The ablations and the query suite still
write their reports into ``results/``, at the committed scale.
"""

import pathlib

import pytest

from repro.experiments import (
    ARTIFACTS,
    DEFAULT_SCALE,
    atomic_write_text,
    build_artifacts,
    write_manifest,
)

#: Simulation scale for benchmarks (fraction of the paper's data sizes).
BENCH_SCALE = DEFAULT_SCALE

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


@pytest.fixture(scope="session")
def save_report():
    """Persist a text report crash-safely (tmp file + atomic rename)."""
    def _save(name: str, text: str) -> None:
        atomic_write_text(str(RESULTS_DIR / f"{name}.txt"), text + "\n")
        print(f"\n{text}\n")
    return _save


@pytest.fixture(scope="session", autouse=True)
def refresh_manifest():
    """Re-checksum results/ after the benchmark session's writes."""
    yield
    write_manifest(str(RESULTS_DIR))
