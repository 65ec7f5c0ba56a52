"""Benchmark: regenerate Figure 5 (direct disk-to-disk communication)."""

import pytest

REPARTITION = ("sort", "join", "mview")
LOCAL = ("select", "aggregate", "groupby", "dmine", "dcube")


@pytest.fixture(scope="module")
def fig5(artifact):
    return artifact("fig5_disk_to_disk")


def test_fig5_sweep(committed):
    committed("fig5_disk_to_disk")


class TestFig5Shape:
    def test_repartition_tasks_slow_down_heavily(self, fig5):
        """"up to a five-fold slowdown for the three communication-
        intensive tasks"."""
        assert max(fig5.slowdown(t, 128) for t in REPARTITION) > 3.8

    def test_slowdown_grows_with_configuration(self, fig5):
        for task in REPARTITION:
            assert (fig5.slowdown(task, 32)
                    < fig5.slowdown(task, 64)
                    < fig5.slowdown(task, 128))

    def test_other_tasks_virtually_unaffected(self, fig5):
        """"virtually no impact on the remaining five tasks"."""
        for task in LOCAL:
            for size in (32, 64, 128):
                assert fig5.slowdown(task, size) == pytest.approx(
                    1.0, abs=0.05)
