"""Benchmark: the composite query suite across architectures.

Beyond the paper: composite scan/filter/aggregate/sort pipelines (TPC-D
flavoured shapes) compiled by the query planner and run on all three
machines. The Active Disk advantage should track each query's data
reduction: the earlier and harder a query cuts its volume, the bigger
the win over the interconnect-starved SMP.
"""


def test_query_suite(artifact, committed):
    committed("query_suite")
    _, results = artifact("query_suite")

    for name, r in results.items():
        # Every query scans the fact table, so the SMP's starved loop
        # loses on all of them at 64 disks.
        assert r["smp"] > 2.0 * r["active"], name
        # And the cluster stays in the same league as Active Disks.
        assert 0.5 < r["cluster"] / r["active"] < 2.0, name
