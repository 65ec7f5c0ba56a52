"""Additional coverage for experiment drivers, sweeps and CLI paths."""

import pytest

from repro.experiments import (
    Sweep,
    SweepCell,
    run_fig2,
    run_fig4,
    run_fig5,
    run_task,
    config_for,
)

TINY = 1 / 512


class TestSweep:
    def cell(self, task="select", arch="active", disks=4,
             variant="base"):
        result = run_task(config_for(arch, disks), task, TINY)
        return SweepCell(task=task, arch=arch, num_disks=disks,
                         variant=variant, result=result)

    def test_add_get(self):
        sweep = Sweep()
        cell = self.cell()
        sweep.add(cell)
        assert sweep.get("select", "active", 4) is cell
        assert sweep.elapsed("select", "active", 4) == cell.elapsed

    def test_missing_cell_raises(self):
        with pytest.raises(KeyError):
            Sweep().get("select", "active", 4)

    def test_tasks_in_insertion_order(self):
        sweep = Sweep()
        sweep.add(self.cell(task="sort"))
        sweep.add(self.cell(task="select"))
        sweep.add(self.cell(task="sort", arch="smp"))
        assert sweep.tasks() == ("sort", "select")


class TestFigureObjects:
    def test_fig2_normalization_and_render(self):
        result = run_fig2(sizes=(4,), tasks=("select",), scale=TINY)
        assert result.normalized("select", "active", 4, "200MB") == \
            pytest.approx(1.0)
        text = result.render()
        assert "400MB(S)" in text

    def test_fig4_render_has_one_block_per_memory(self):
        result = run_fig4(sizes=(4,), tasks=("select",),
                          memories_mb=(32, 64, 128), scale=TINY)
        text = result.render()
        assert "64 MB" in text and "128 MB" in text
        assert "32 MB" not in text.split("vs 32 MB")[0].splitlines()[0]

    def test_fig5_modes_recorded(self):
        result = run_fig5(sizes=(4,), tasks=("aggregate",), scale=TINY)
        assert ("aggregate", 4, "direct") in result.elapsed
        assert ("aggregate", 4, "restricted") in result.elapsed
