"""Benchmark: regenerate Table 2 (datasets for the task workload)."""

from repro.workloads import TABLE2

GB = 1_000_000_000


def test_table2_datasets(committed):
    committed("table2_datasets")

    assert len(TABLE2) == 8
    assert TABLE2["join"].total_bytes == 32 * GB
    assert TABLE2["mview"].total_bytes == 15 * GB
    assert all(spec.total_bytes == 16 * GB
               for name, spec in TABLE2.items()
               if name not in ("join", "mview"))
