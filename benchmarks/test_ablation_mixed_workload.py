"""Ablation: concurrent (mixed) decision-support workloads.

The paper runs one query at a time. Real decision-support servers run
mixes; this bench executes a scan query (select) concurrently with the
interconnect-heavy sort on every architecture and measures the
interference each query suffers — where the architecture's bottleneck
resource is shared, the mix hurts.
"""


def test_mixed_workload(artifact, committed):
    committed("ablation_mixed_workload")

    for arch, (select, sort, together) in artifact(
            "ablation_mixed_workload").items():
        # The short scan absorbs most of the interference (it shares
        # CPUs/loops with a much longer job) but never starves...
        assert 1.0 <= together["select"] / select < 6.0, arch
        # ...while the long sort barely notices the scan.
        assert 1.0 <= together["sort"] / sort < 1.6, arch
