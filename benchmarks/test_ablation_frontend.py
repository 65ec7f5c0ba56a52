"""Ablation: front-end processor speed (paper Section 2.1 variant).

The paper configures a 1 GHz front-end alternative. Tasks that funnel
volume through the front-end (group-by, restricted-mode shuffles) should
benefit; media-side tasks should not care.
"""

import pytest


def test_frontend_scaling(artifact, committed):
    committed("ablation_frontend")
    by_task = {(task, mode): base / fast
               for task, mode, base, fast in artifact("ablation_frontend")}

    # Media-side scans are front-end-insensitive.
    assert by_task[("select", "direct")] == pytest.approx(1.0, abs=0.03)
    # The restricted-mode relay is front-end CPU heavy.
    assert by_task[("sort", "restricted")] > 1.1
