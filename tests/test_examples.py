"""Every script in ``examples/`` runs to completion.

Each example is imported as a module, its ``SCALE`` (where it has one)
shrunk to a tiny fraction of the paper's datasets, and its ``main()``
called in a temporary working directory, since some write ``reports/``.
"""

import importlib.util
import pathlib

import pytest

EXAMPLES = sorted((pathlib.Path(__file__).resolve().parent.parent
                   / "examples").glob("*.py"))
TINY = 1 / 1024
#: Arguments for examples whose ``main`` takes ``argv``.
ARGV = {"utilization_timeline": ["8"]}


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, tmp_path, monkeypatch, capsys):
    spec = importlib.util.spec_from_file_location(
        f"example_{path.stem}", path)
    example = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(example)
    if hasattr(example, "SCALE"):
        monkeypatch.setattr(example, "SCALE", TINY)
    monkeypatch.chdir(tmp_path)
    if path.stem in ARGV:
        example.main(ARGV[path.stem])
    else:
        example.main()
    assert capsys.readouterr().out.strip()
