"""Benchmark: the paper's claims at the committed scale, from the
figure cells the session has already built."""


def test_scorecard(artifact, committed):
    committed("scorecard")
    card = artifact("scorecard")
    assert card.passed, card.render()
