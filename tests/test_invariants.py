"""Tests for repro.invariants: auditors, kernel parity, differential fuzz.

Four concerns:

* **Loop parity** — the fast loop and the instrumented loop, run
  checked or armed, raise the same errors for the same defects (same
  class and message for fast vs checked; an armed run upgrades kernel
  breaches to structured violations) and produce bit-identical
  simulations.
* **Deliberate corruption** — each auditor actually fires: a dropped or
  duplicated chunk breaks the drive's byte ledger, a double completion
  breaks request lifecycle, a scratch overdraw breaks the DiskOS memory
  budget, an over-granted stream buffer breaks occupancy bounds — and
  every violation carries an accurate expected-vs-observed ledger.
* **Armed-is-free** — arming every auditor changes no simulation result,
  up to and including regenerating Figure 1 byte-identically.
* **Differential fuzzing** — the seeded fuzz batch runs armed vs
  disarmed (instrumented vs fast loop) on random small cells across all
  three architectures (with fault plans) and diffs the serialized
  results exactly.
"""

from types import SimpleNamespace

import pytest

from repro.experiments import config_for, run_task
from repro.experiments.artifacts import result_to_dict
from repro.experiments.journal import SweepJournal
from repro.experiments.workers import CellSpec, run_cell, run_cells
from repro.invariants import (
    NULL_INVARIANTS,
    InvariantAuditor,
    InvariantViolation,
    armed,
    default_auditor,
    is_armed,
)
from repro.sim import SimulationError, Simulator

SMALL = 1 / 512


def fast_sim():
    return Simulator()


def checked_sim():
    return Simulator(debug=True)


def audited_sim():
    sim = Simulator()
    InvariantAuditor().install(sim)
    return sim


ALL_LOOPS = [fast_sim, checked_sim, audited_sim]
LOOP_IDS = ["fast", "checked", "audited"]


def push_past_event(sim, at: float):
    """Corrupt the queue: an already-triggered event stamped in the past."""
    from repro.sim.core import Event
    event = Event(sim)
    event._triggered = True
    sim._push([at, next(sim._counter), event])


class TestLoopParity:
    """Same defect, same exception — across all three run loops."""

    @pytest.mark.parametrize("make_sim", ALL_LOOPS, ids=LOOP_IDS)
    def test_past_event_raises_simulation_error(self, make_sim):
        sim = make_sim()

        def proc():
            yield sim.timeout(1.0)
            push_past_event(sim, at=0.5)
            yield sim.timeout(1.0)

        sim.process(proc())
        with pytest.raises(SimulationError,
                           match="event scheduled in the past"):
            sim.run()

    def test_fast_and_checked_messages_match_exactly(self):
        messages = []
        for make_sim in (fast_sim, checked_sim):
            sim = make_sim()

            def proc():
                yield sim.timeout(1.0)
                push_past_event(sim, at=0.5)
                yield sim.timeout(1.0)

            sim.process(proc())
            with pytest.raises(SimulationError) as excinfo:
                sim.run()
            messages.append((type(excinfo.value), str(excinfo.value)))
        assert messages[0] == messages[1]

    def test_audited_loop_reports_clock_monotonicity(self):
        sim = audited_sim()

        def proc():
            yield sim.timeout(1.0)
            push_past_event(sim, at=0.25)
            yield sim.timeout(1.0)

        sim.process(proc())
        with pytest.raises(InvariantViolation) as excinfo:
            sim.run()
        violation = excinfo.value
        assert violation.invariant == "clock-monotonicity"
        assert violation.component == "sim.kernel"
        assert "t=0.25" in violation.observed
        report = violation.report()
        assert report["invariant"] == "clock-monotonicity"
        assert report["sim_time"] == 1.0

    @pytest.mark.parametrize("make_sim", ALL_LOOPS, ids=LOOP_IDS)
    def test_non_event_yield_parity(self, make_sim):
        sim = make_sim()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="must yield Event"):
            sim.run()

    @pytest.mark.parametrize("make_sim", ALL_LOOPS, ids=LOOP_IDS)
    def test_stall_detection_parity(self, make_sim):
        from repro.sim import Event, SimStalled
        sim = make_sim()

        def stuck():
            yield Event(sim)

        sim.process(stuck(), name="stuck-waiter")
        with pytest.raises(SimStalled, match="stuck-waiter"):
            sim.run()

    @pytest.mark.parametrize("make_sim", ALL_LOOPS, ids=LOOP_IDS)
    def test_identical_simulation_results(self, make_sim, monkeypatch):
        baseline = run_task(config_for("cluster", 2), "select", scale=SMALL)
        if make_sim is checked_sim:    # run_task builds checked simulators
            monkeypatch.setattr("repro.experiments.runner.Simulator",
                                checked_sim)
        result = run_task(config_for("cluster", 2), "select", scale=SMALL,
                          invariants=(InvariantAuditor()
                                      if make_sim is audited_sim else None))
        assert result_to_dict(result) == result_to_dict(baseline)


class TestArmedIsFree:
    """Armed auditors only observe: results match disarmed bit-for-bit."""

    @pytest.mark.parametrize("arch", ("active", "cluster", "smp"))
    def test_armed_run_bit_identical(self, arch):
        config = config_for(arch, 4)
        disarmed = run_task(config, "groupby", scale=SMALL)
        hub = InvariantAuditor()
        audited = run_task(config, "groupby", scale=SMALL, invariants=hub)
        assert result_to_dict(audited) == result_to_dict(disarmed)
        assert not hub.violations
        assert hub.counters["invariants.final_audits"] == 1
        assert hub.counters["invariants.phase_audits"] >= 1

    def test_armed_context_arms_run_task(self):
        assert not is_armed()
        assert default_auditor() is None
        with armed():
            assert is_armed()
            assert default_auditor() is not None
        assert not is_armed()

    def test_disarmed_simulator_carries_null_singleton(self):
        assert Simulator().invariants is NULL_INVARIANTS

    def test_armed_fig1_regeneration_is_byte_identical(self):
        # Satellite check of the whole contract: every auditor armed on
        # every cell of the quick Figure 1 column, output byte-compared
        # to the checked-in results/ baseline, nothing raised.
        from repro.experiments import fig1_identity_check
        with armed():
            report = fig1_identity_check(quick=True)
        assert report["identical"] is True
        assert report["cells"] == 24


class TestDeliberateCorruption:
    """Each corruption trips its auditor with an accurate ledger."""

    def _armed_machine(self, arch="cluster", disks=2):
        from repro.arch import build_machine
        sim = Simulator()
        InvariantAuditor().install(sim)
        machine = build_machine(sim, config_for(arch, disks))
        return sim, machine

    def _program(self, arch, disks, task="select", scale=SMALL):
        from repro.workloads import build_program
        return build_program(task, config_for(arch, disks), scale)

    def test_duplicated_chunk_breaks_byte_conservation(self):
        sim, machine = self._armed_machine("cluster", 2)
        drive = machine.nodes[0].drive

        def duplicate_chunk():
            yield sim.timeout(0.01)
            drive.bytes_read += 4096   # a chunk counted twice

        sim.process(duplicate_chunk(), name="corruptor")
        with pytest.raises(InvariantViolation) as excinfo:
            machine.run(self._program("cluster", 2))
        violation = excinfo.value
        assert violation.invariant == "byte-conservation"
        assert violation.component == f"drive.{drive.name}"
        expected = violation.expected["bytes_read"]
        assert violation.observed["bytes_read"] == expected + 4096

    def test_dropped_chunk_breaks_byte_conservation(self):
        sim, machine = self._armed_machine("cluster", 2)
        drive = machine.nodes[1].drive

        def drop_chunk():
            yield sim.timeout(0.01)
            drive.bytes_read -= 4096   # a chunk lost from the tally

        sim.process(drop_chunk(), name="corruptor")
        with pytest.raises(InvariantViolation) as excinfo:
            machine.run(self._program("cluster", 2))
        violation = excinfo.value
        assert violation.invariant == "byte-conservation"
        expected = violation.expected["bytes_read"]
        assert violation.observed["bytes_read"] == expected - 4096

    def test_double_completion_breaks_request_lifecycle(self):
        sim, machine = self._armed_machine("cluster", 2)
        drive = machine.nodes[0].drive
        caught = []

        def double_complete():
            request = yield drive.read(0, 4096)
            try:
                drive._audit.request_completed(request)
            except InvariantViolation as violation:
                caught.append(violation)

        sim.process(double_complete())
        sim.run()
        assert len(caught) == 1
        violation = caught[0]
        assert violation.invariant == "request-lifecycle"
        assert "extra completion" in str(violation.observed)

    def test_scratch_overdraw_breaks_memory_budget(self):
        sim, machine = self._armed_machine("active", 2)
        node = machine.nodes[0]
        limit = node.scratch_audit.limit
        node.scratch_audit.reserve(limit, "legitimate phase scratch")
        with pytest.raises(InvariantViolation) as excinfo:
            node.scratch_audit.reserve(1, "the overdraw")
        violation = excinfo.value
        assert violation.invariant == "memory-budget"
        assert violation.expected == {"limit_bytes": limit}
        assert violation.observed == {"reserved_bytes": limit + 1}

    def test_buffer_overgrant_breaks_occupancy_bounds(self):
        from repro.diskos.streams import StreamBufferProbe
        from repro.telemetry import NULL_TELEMETRY
        sim = Simulator()
        hub = InvariantAuditor().install(sim)
        probe = StreamBufferProbe(NULL_TELEMETRY, "comm0", capacity=2,
                                  invariants=hub)
        probe.acquire()
        probe.acquire()
        with pytest.raises(InvariantViolation) as excinfo:
            probe.acquire()
        violation = excinfo.value
        assert violation.invariant == "occupancy-bounds"
        assert violation.observed == 3

    def test_shuffle_drop_breaks_phase_ledger(self):
        hub = InvariantAuditor()
        machine = SimpleNamespace(arch="cluster",
                                  _frontend_bytes_observed=lambda: None)
        auditor = hub.machine_auditor(machine)
        phase = SimpleNamespace(name="scan", read_bytes_total=1000,
                                shuffle_fraction=0.5, frontend_fraction=0.0)
        auditor.loop_started(phase)
        auditor.processed(phase, 1000)
        auditor.sent_shuffle(phase, 500)
        auditor.delivered_shuffle(phase, 400)   # 100 bytes vanished
        with pytest.raises(InvariantViolation) as excinfo:
            auditor.phase_finished(phase)
        violation = excinfo.value
        assert violation.invariant == "shuffle-conservation"
        assert violation.expected == {"delivered_bytes": 500}
        assert violation.observed == {"delivered_bytes": 400}


def _violating_cell(spec):
    raise InvariantViolation("drive.test0", "byte-conservation", 0.125,
                             expected={"bytes_read": 8192},
                             observed={"bytes_read": 4096},
                             detail="synthetic defect for routing tests")


class TestViolationRouting:
    """InvariantViolation quarantines immediately, report attached."""

    SPEC = CellSpec(task="select", arch="cluster", num_disks=2,
                    scale=SMALL)

    def test_inline_pool_quarantines_without_retry(self):
        events = []
        outcomes = run_cells(
            [self.SPEC], retries=3, cell_fn=_violating_cell,
            on_attempt_failed=lambda s, a, e, kind: events.append(kind))
        assert events == ["violation"]
        outcome = outcomes[0]
        assert outcome.status == "quarantined"
        assert outcome.attempts == 1     # deterministic: no retries burned
        assert outcome.violation["invariant"] == "byte-conservation"
        assert outcome.violation["expected"] == {"bytes_read": 8192}

    def test_subprocess_pool_routes_violation_report(self):
        events = []
        outcomes = run_cells(
            [self.SPEC], jobs=2, retries=3, cell_fn=_violating_cell,
            on_attempt_failed=lambda s, a, e, kind: events.append(kind))
        assert events == ["violation"]
        outcome = outcomes[0]
        assert outcome.status == "quarantined"
        assert outcome.attempts == 1
        assert outcome.violation["component"] == "drive.test0"
        assert outcome.violation["sim_time"] == 0.125

    def test_harness_counters_and_journal_field(self, tmp_path, monkeypatch):
        import repro.experiments.harness as harness
        from repro.experiments import SweepRunner
        from repro.experiments.workers import run_ledger

        def with_violating_cells(ledger, **kwargs):
            kwargs["cell_fn"] = _violating_cell
            return run_ledger(ledger, **kwargs)

        monkeypatch.setattr(harness, "run_ledger", with_violating_cells)
        path = str(tmp_path / "sweep.journal.jsonl")
        runner = SweepRunner(path, strict=False)
        runner.run([self.SPEC])
        assert runner.counters["violations"] == 1
        assert runner.counters["quarantined"] == 1

        journal = SweepJournal.load(path)
        assert list(journal.violated()) == [self.SPEC.key]
        cell = journal.cells[self.SPEC.key]
        assert cell.status == "quarantined"
        assert cell.violation["invariant"] == "byte-conservation"
        assert cell.violation["detail"] == ("synthetic defect for "
                                            "routing tests")


class TestDifferentialFuzz:
    """The seeded batch: armed vs disarmed, diffed exactly."""

    def test_batch_is_deterministic_and_covers_the_space(self):
        from repro.invariants.fuzz import FUZZ_ARCHS, fuzz_cells
        cells = fuzz_cells(count=25, seed=3)
        assert cells == fuzz_cells(count=25, seed=3)
        assert cells != fuzz_cells(count=25, seed=4)
        assert {spec.arch for spec in cells} == set(FUZZ_ARCHS)
        assert sum(1 for spec in cells if spec.fault_disk is not None) == 5
        assert all(spec.audit for spec in cells)
        assert len({spec.key for spec in cells}) == 25

    def test_twenty_five_cells_pass_differentially(self, tmp_path):
        from repro.invariants.fuzz import run_fuzz
        path = str(tmp_path / "fuzz.journal.jsonl")
        report = run_fuzz(count=25, seed=0, journal_path=path)
        assert report.ok, report.summary()
        assert len(report.outcomes) == 25
        assert {o.spec.arch for o in report.outcomes} == {
            "active", "cluster", "smp"}
        assert any(o.spec.fault_disk is not None for o in report.outcomes)
        journal = SweepJournal.load(path)
        assert journal.counts()["done"] == 25
        assert not journal.violated()

    def test_divergence_is_reported(self, monkeypatch):
        from repro.invariants import fuzz

        def fake_run_cell(spec, invariants=None):
            result = run_cell(
                CellSpec(task="select", arch="cluster", num_disks=2,
                         scale=SMALL))
            if invariants is None:
                result.elapsed += 1e-9   # the loops disagree
            return result

        monkeypatch.setattr(fuzz, "run_cell", fake_run_cell)
        report = fuzz.run_fuzz(count=1, seed=0)
        assert not report.ok
        assert report.outcomes[0].status == "diverged"
        assert any("elapsed" in line for line in report.outcomes[0].diff)

    def test_violation_is_reported_with_ledger(self, monkeypatch):
        from repro.invariants import fuzz
        monkeypatch.setattr(fuzz, "run_cell", _violating_cell_kw)
        report = fuzz.run_fuzz(count=1, seed=0)
        assert not report.ok
        outcome = report.outcomes[0]
        assert outcome.status == "violation"
        assert outcome.violation["observed"] == {"bytes_read": 4096}


def _violating_cell_kw(spec, invariants=None):
    return _violating_cell(spec)


class TestAuditedCellSpec:
    """CellSpec.audit arms run_cell without disturbing old hashes."""

    def test_audit_default_keeps_config_hash_stable(self):
        spec = CellSpec(task="select", arch="smp", num_disks=2, scale=SMALL)
        assert "audit" not in spec.to_dict()
        armed_spec = CellSpec(task="select", arch="smp", num_disks=2,
                              scale=SMALL, audit=True)
        assert armed_spec.to_dict()["audit"] is True
        assert spec.config_hash() != armed_spec.config_hash()

    def test_audited_cell_runs_armed_and_matches_disarmed(self):
        spec = CellSpec(task="select", arch="smp", num_disks=2, scale=SMALL)
        audited = run_cell(
            CellSpec(task="select", arch="smp", num_disks=2, scale=SMALL,
                     audit=True))
        assert result_to_dict(audited) == result_to_dict(run_cell(spec))
