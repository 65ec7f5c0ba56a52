"""Benchmark: regenerate Table 2 (datasets for the task workload)."""

from repro.experiments import run_table2
from repro.workloads import TABLE2

GB = 1_000_000_000


def test_table2_datasets(save_report):
    text = run_table2()
    save_report("table2_datasets", text)

    assert len(TABLE2) == 8
    assert TABLE2["join"].total_bytes == 32 * GB
    assert TABLE2["mview"].total_bytes == 15 * GB
    assert all(spec.total_bytes == 16 * GB
               for name, spec in TABLE2.items()
               if name not in ("join", "mview"))
