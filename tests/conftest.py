"""Fixtures shared across test modules."""

import pytest


@pytest.fixture(scope="session")
def quick_fig1_identity():
    """One quick Figure 1 regeneration, byte-compared to the baseline.

    Regenerating the 16-disk column costs seconds, so every test that
    asserts on the checked-in Figure 1 bytes shares this one report.
    """
    from repro.experiments import fig1_identity_check

    return fig1_identity_check(quick=True)


@pytest.fixture(scope="session")
def scorecard():
    """The claims at 1/64, each distinct cell simulated once a session."""
    from repro.experiments.scorecard import run_scorecard

    return run_scorecard(None, 1 / 64)
