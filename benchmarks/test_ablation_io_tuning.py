"""Ablation: the paper's software tuning choices (Section 3).

Verifies that the tuning the paper applies — large (256 KB) requests and
deep (4) request queues — actually pays off in the model, and that the
SMP's split read/write disk groups for sort beat interleaved groups.
"""


def test_io_tuning(artifact, committed):
    committed("ablation_io_tuning")
    elapsed = artifact("ablation_io_tuning")

    # The paper's tuning must never lose to the untuned settings.
    assert elapsed["tuned"] <= elapsed["shallow_queue"] * 1.02
    assert elapsed["tuned"] <= elapsed["small_requests"] * 1.02
    assert elapsed["split"] <= elapsed["interleaved"] * 1.05
