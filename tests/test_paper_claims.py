"""The paper's headline results: one acceptance test per claim of
:data:`repro.experiments.scorecard.CLAIMS`, at 1/64 (every claim holds
there and at the committed 1/32; at 1/1024 six do not), from the
session's one ``scorecard`` evaluation. A claim's test is
``Test<ref>Claims::test_<claim id>``; a claim of a new ``ref`` is
checked by ``TestScorecardFull`` alone.
"""

from repro.experiments.scorecard import CLAIMS


def _claim_tests(ref: str) -> type:
    """A test class with one test per claim of ``ref``."""
    def test(claim):
        def check(self, scorecard):
            result = scorecard.result(claim.id)
            assert result.passed, (
                f"{claim.statement}: {result.values} outside {claim.band}")
        return check
    return type(f"Test{ref.replace(' ', '')}Claims", (), {
        f"test_{claim.id}": test(claim) for claim in CLAIMS if claim.ref == ref})


TestFigure1Claims = _claim_tests("Figure 1")
TestFigure2Claims = _claim_tests("Figure 2")
TestFigure3Claims = _claim_tests("Figure 3")
TestFigure4Claims = _claim_tests("Figure 4")
TestFigure5Claims = _claim_tests("Figure 5")
TestTable1Claims = _claim_tests("Table 1")
