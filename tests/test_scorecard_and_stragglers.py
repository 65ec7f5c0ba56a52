"""Tests for the reproduction scorecard and degraded-hardware behaviour."""

import pytest

from repro.arch import ActiveDiskConfig, build_machine
from repro.cli import main
from repro.disk import DiskDrive, SEAGATE_ST39102, fast_variant
from repro.experiments import scorecard as scorecard_module
from repro.experiments.registry import ARTIFACTS, configuration
from repro.experiments.scorecard import CLAIMS, Claim, ClaimResult, run_scorecard
from repro.sim import Simulator
from repro.workloads import build_program


def constant(band, value, statement="s"):
    """A claim with one cell-free value."""
    return Claim(statement, "ref", statement, band, (((), lambda: value),))


class TestScorecardMechanics:
    def test_claim_result_verdict(self):
        claim = constant("[1, 2]", 1.5)
        assert ClaimResult(claim, (1.5,)).passed
        assert not ClaimResult(claim, (2.5,)).passed
        assert not ClaimResult(claim, (0.5,)).passed
        # Several values pass only together; strict ends exclude.
        assert not ClaimResult(claim, (1.5, 2.5)).passed
        assert not ClaimResult(constant("(1, 2)", 1.5), (2.0,)).passed

    def test_claims_have_unique_statements(self):
        statements = [c.statement for c in CLAIMS]
        assert len(statements) == len(set(statements))
        ids = [c.id for c in CLAIMS]
        assert len(ids) == len(set(ids))

    def test_custom_claims_evaluated(self, monkeypatch):
        monkeypatch.setattr(scorecard_module, "CLAIMS", (
            constant("[0, 10]", 5.0, "always passes"),
            constant("[0, 1]", 5.0, "always fails")))
        card = run_scorecard(None, scale=1.0)
        table = card.render()
        assert [r.passed for r in card.results] == [True, False]
        assert "1/2 claims pass" in table
        assert "FAIL" in table and "PASS" in table

    @pytest.mark.parametrize("scale", [1 / 64, 1 / 32, 1 / 1000])
    def test_claim_cells_are_figure_cells(self, scale):
        """The scorecard adds no configuration to ``repro build``, and
        labels each of its configurations once, as the figures do."""
        grid = {configuration(spec) for name, artifact in ARTIFACTS.items()
                if name.startswith("fig") for spec in artifact.cells(scale)}
        cells = ARTIFACTS["scorecard"].cells(scale)
        assert {configuration(spec) for spec in cells} <= grid
        assert len({spec.key for spec in cells}) == len(
            {configuration(spec) for spec in cells}) == len(cells)

    def test_cli_exit_status_and_no_writes(self, monkeypatch, tmp_path,
                                           capsys):
        monkeypatch.chdir(tmp_path)
        passing = constant("[0, 10]", 5.0, "always passes")
        monkeypatch.setattr(scorecard_module, "CLAIMS", (passing,))
        assert main(["scorecard"]) == 0
        monkeypatch.setattr(scorecard_module, "CLAIMS",
                            (passing, constant("[0, 1]", 5.0, "fails")))
        assert main(["scorecard"]) == 1
        assert "1/2 claims pass" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []


@pytest.mark.slow
class TestScorecardFull:
    def test_all_paper_claims_pass(self, scorecard):
        """The headline acceptance check, as the CLI runs it."""
        failures = [r.claim.statement for r in scorecard.results
                    if not r.passed]
        assert not failures, f"failed claims: {failures}\n{scorecard.render()}"


class TestStragglers:
    """Degraded-hardware injection: one slow spindle in the farm."""

    def degrade(self, machine, node_index, factor):
        slow_spec = fast_variant(SEAGATE_ST39102, factor)
        node = machine.nodes[node_index]
        node.drive = DiskDrive(machine.sim, slow_spec,
                               name=f"slow{node_index}")

    def run_sort(self, degrade_factor=None):
        config = ActiveDiskConfig(num_disks=8)
        sim = Simulator()
        machine = build_machine(sim, config)
        if degrade_factor is not None:
            self.degrade(machine, 0, degrade_factor)
        program = build_program("sort", config, 1 / 128)
        return machine.run(program)

    def test_one_slow_disk_stretches_the_phase(self):
        healthy = self.run_sort()
        degraded = self.run_sort(degrade_factor=0.25)  # 4x slower disk
        assert degraded.elapsed > 1.3 * healthy.elapsed

    def test_straggler_shows_up_as_idle_elsewhere(self):
        healthy = self.run_sort()
        degraded = self.run_sort(degrade_factor=0.25)
        # The other seven disks wait at the barrier for the slow one.
        assert degraded.phases[0].idle > healthy.phases[0].idle

    def test_mild_degradation_mild_impact(self):
        healthy = self.run_sort()
        mild = self.run_sort(degrade_factor=0.8)
        assert mild.elapsed < 1.3 * healthy.elapsed
