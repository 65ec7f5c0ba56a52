"""Unit tests for the fault-injection subsystem (repro.faults)."""

import re
from pathlib import Path

import pytest

from repro.disk import SEAGATE_ST39102, DiskDrive
from repro.experiments import config_for, run_task
from repro.faults import (
    FAULT_KINDS,
    DriveFailed,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    NullFaultInjector,
    RetryPolicy,
)
from repro.interconnect import SerialBus
from repro.net import FatTree, Network
from repro.sim import Event, SimStalled, Simulator

KB = 1024
MB = 1_000_000


def run_proc(sim, gen):
    """Run one process to completion and return its value."""
    process = sim.process(gen)
    sim.run()
    assert process.ok
    return process.value


def wait_for(sim, event):
    """Run the sim until ``event`` fires (a one-yield process)."""
    def waiter():
        yield event
    return run_proc(sim, waiter())


# ---------------------------------------------------------------------------
# Specs, plans, policies
# ---------------------------------------------------------------------------

class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor_strike", target="disk.0")

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError, match="target"):
            FaultSpec(kind="drive_failure", target="")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            FaultSpec(kind="drive_failure", target="disk.0", at=-1.0)

    def test_outage_requires_duration(self):
        with pytest.raises(ValueError, match="duration"):
            FaultSpec(kind="loop_outage", target="bus.*")

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="packet_loss", target="net", duration=1.0,
                      magnitude=1.5)

    def test_slowdown_must_exceed_one(self):
        with pytest.raises(ValueError, match="factor > 1"):
            FaultSpec(kind="drive_slowdown", target="disk.0",
                      duration=1.0, magnitude=0.5)

    def test_media_retry_count_must_be_whole(self):
        with pytest.raises(ValueError, match="whole retry count"):
            FaultSpec(kind="media_error", target="disk.0", magnitude=2.5)

    def test_windowed_end(self):
        spec = FaultSpec(kind="drive_slowdown", target="disk.0",
                         at=1.0, duration=2.0, magnitude=3.0)
        assert spec.end == pytest.approx(3.0)

    def test_permanent_end_is_inf(self):
        spec = FaultSpec(kind="drive_failure", target="disk.0", at=1.0)
        assert spec.end == float("inf")


class TestFaultPlan:
    def test_json_roundtrip(self):
        plan = FaultPlan.of(
            FaultSpec(kind="drive_failure", target="disk.3", at=1.5),
            FaultSpec(kind="packet_loss", target="net", duration=2.0,
                      magnitude=0.05),
            seed=42)
        assert FaultPlan.from_json(plan.to_json()) == plan

    def test_file_roundtrip(self, tmp_path):
        plan = FaultPlan.of(
            FaultSpec(kind="media_error", target="disk.0", lbn=100),
            seed=7)
        path = tmp_path / "plan.json"
        plan.to_file(str(path))
        assert FaultPlan.from_file(str(path)) == plan

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown fault plan fields"):
            FaultPlan.from_dict({"seed": 0, "faults": [], "bogus": 1})
        with pytest.raises(ValueError, match="unknown fault spec fields"):
            FaultPlan.from_dict({"faults": [
                {"kind": "drive_failure", "target": "disk.0", "oops": 2}]})

    def test_non_spec_entries_rejected(self):
        with pytest.raises(TypeError):
            FaultPlan(specs=("not a spec",))

    def test_len_and_iter(self):
        plan = FaultPlan.of(
            FaultSpec(kind="drive_failure", target="disk.0"))
        assert len(plan) == 1
        assert [spec.kind for spec in plan] == ["drive_failure"]


class TestPolicies:
    def test_retry_delay_backs_off_and_caps(self):
        retry = RetryPolicy(max_attempts=5, base_delay=1e-3, factor=2.0,
                            max_delay=3e-3)
        assert retry.delay(0) == pytest.approx(1e-3)
        assert retry.delay(1) == pytest.approx(2e-3)
        assert retry.delay(2) == pytest.approx(3e-3)   # capped
        assert retry.delay(9) == pytest.approx(3e-3)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)


# ---------------------------------------------------------------------------
# Injector wiring
# ---------------------------------------------------------------------------

class TestInjector:
    def test_null_injector_refuses_registration(self):
        sim = Simulator()
        assert isinstance(sim.faults, NullFaultInjector)
        assert not sim.faults.enabled
        with pytest.raises(RuntimeError, match="no fault plan armed"):
            sim.faults.register("disk.0")

    def test_install_and_pattern_matching(self):
        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="drive_failure", target="disk.*", at=0.5))
        injector = FaultInjector(plan).install(sim)
        assert sim.faults is injector
        ports = [injector.register(f"disk.{i}") for i in range(3)]
        injector.register("bus.fc")
        hit = []
        for port in ports:
            port.on("drive_failure", lambda spec, p=port: hit.append(p))
        sim.run(until=1.0)
        assert set(hit) == set(ports)
        assert injector.counters["faults.injected.drive_failure"] == 1

    def test_unmatched_spec_counted(self):
        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="drive_failure", target="disk.99"))
        injector = FaultInjector(plan).install(sim)
        sim.run(until=1.0)
        assert injector.counters["faults.unmatched.drive_failure"] == 1

    def test_window_activates_and_clears(self):
        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="drive_slowdown", target="disk.0",
                      at=1.0, duration=2.0, magnitude=4.0))
        injector = FaultInjector(plan).install(sim)
        port = injector.register("disk.0")
        samples = {}

        def probe():
            samples[0.5] = port.factor()
            yield sim.timeout(1.5)   # t = 1.5, inside the window
            samples[1.5] = port.factor()
            yield sim.timeout(2.0)   # t = 3.5, window cleared
            samples[3.5] = port.factor()

        sim.process(probe())
        sim.run()
        assert samples == {0.5: 1.0, 1.5: 4.0, 3.5: 1.0}
        actions = [(action, kind) for _, action, kind, _
                   in injector.timeline]
        assert actions == [("inject", "drive_slowdown"),
                           ("clear", "drive_slowdown")]

    def test_registration_after_arming_rejected(self):
        sim = Simulator()
        injector = FaultInjector(FaultPlan()).install(sim)
        sim.run(until=0.1)
        with pytest.raises(RuntimeError, match="already"):
            injector.register("disk.0")

    def test_seed_override(self):
        plan = FaultPlan(seed=3)
        assert FaultInjector(plan).seed == 3
        assert FaultInjector(plan, seed=9).seed == 9


# ---------------------------------------------------------------------------
# Sim-core satellites: SimStalled + condition defusing
# ---------------------------------------------------------------------------

class TestSimStalled:
    def test_deadlock_names_blocked_processes(self):
        sim = Simulator()

        def stuck():
            yield Event(sim)    # never succeeds

        sim.process(stuck(), name="reader-3")
        with pytest.raises(SimStalled, match="reader-3"):
            sim.run()

    def test_daemons_do_not_trigger_stall(self):
        sim = Simulator()

        def daemon():
            yield Event(sim)

        def worker():
            yield sim.timeout(1.0)

        sim.process(daemon(), name="svc", daemon=True)
        sim.process(worker())
        sim.run()
        assert sim.now == pytest.approx(1.0)

    def test_bounded_run_skips_the_check(self):
        sim = Simulator()

        def stuck():
            yield Event(sim)

        sim.process(stuck())
        sim.run(until=1.0)   # no exception: explicit horizon


class TestConditionDefuse:
    def test_late_failure_after_anyof_triggers_is_defused(self):
        sim = Simulator()
        slow = Event(sim)

        def failer():
            yield sim.timeout(2.0)
            slow.fail(RuntimeError("late loser"))

        def waiter():
            fast = sim.timeout(1.0)
            yield sim.any_of([fast, slow])

        sim.process(failer(), daemon=True)
        sim.process(waiter())
        sim.run()   # must not raise: the losing branch failed after win
        assert sim.now == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Drive faults
# ---------------------------------------------------------------------------

def make_drive(sim, plan=None, seed=0):
    if plan is not None:
        FaultInjector(plan, seed=seed).install(sim)
    return DiskDrive(sim, SEAGATE_ST39102, name="d0", fault_id="disk.0")


class TestDriveFaults:
    def test_media_error_inflates_read_time(self):
        clean = Simulator()
        drive = make_drive(clean)
        wait_for(clean, drive.read(0, 256 * KB))
        baseline = clean.now

        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="media_error", target="disk.0", lbn=8,
                      magnitude=3))
        drive = make_drive(sim, plan)
        wait_for(sim, drive.read(0, 256 * KB))
        assert sim.now > baseline
        assert sim.faults.counters["faults.disk.media_errors"] == 1
        assert sim.faults.counters["faults.disk.read_retries"] == 3

    def test_latent_sector_error_remaps(self):
        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="latent_sector_error", target="disk.0", lbn=4))
        drive = make_drive(sim, plan)
        wait_for(sim, drive.read(0, 256 * KB))
        assert sim.faults.counters["faults.disk.remaps"] == 1

    def test_media_error_outside_request_untouched(self):
        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="media_error", target="disk.0", lbn=10_000_000))
        drive = make_drive(sim, plan)
        wait_for(sim, drive.read(0, 256 * KB))
        assert "faults.disk.media_errors" not in sim.faults.counters

    def test_slowdown_scales_service_time(self):
        clean = Simulator()
        drive = make_drive(clean)
        wait_for(clean, drive.read(0, 1 * MB))
        baseline = clean.now

        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="drive_slowdown", target="disk.0",
                      duration=100.0, magnitude=2.0))
        drive = make_drive(sim, plan)
        wait_for(sim, drive.read(0, 1 * MB))
        assert sim.now > baseline * 1.5

    def test_drive_failure_fails_queued_and_new_requests(self):
        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="drive_failure", target="disk.0", at=0.0))
        drive = make_drive(sim, plan)

        def proc():
            yield sim.timeout(0.01)    # failure has fired
            assert drive.failed
            with pytest.raises(DriveFailed):
                yield drive.read(0, 64 * KB)

        run_proc(sim, proc())
        assert sim.faults.counters["faults.disk.failures"] == 1
        assert sim.faults.counters["faults.disk.rejected_requests"] == 1


# ---------------------------------------------------------------------------
# Interconnect and network faults
# ---------------------------------------------------------------------------

class TestBusFaults:
    def test_transients_add_retries_and_time(self):
        clean = Simulator()
        bus = SerialBus(clean, 100 * MB, name="fc")
        run_proc(clean, bus.transfer(10 * MB))
        baseline = clean.now

        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="bus_transient", target="bus.fc",
                      duration=1000.0, magnitude=0.5))
        FaultInjector(plan, seed=1).install(sim)
        bus = SerialBus(sim, 100 * MB, name="fc")
        run_proc(sim, bus.transfer(10 * MB))
        assert sim.now > baseline
        assert sim.faults.counters["faults.bus.transients"] >= 1

    def test_loop_outage_blocks_transfer(self):
        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="loop_outage", target="bus.fc",
                      at=0.0, duration=0.5))
        FaultInjector(plan).install(sim)
        bus = SerialBus(sim, 100 * MB, name="fc")

        def proc():
            yield sim.timeout(0.01)
            yield from bus.transfer(1 * MB)

        run_proc(sim, proc())
        assert sim.now > 0.5
        assert sim.faults.counters["faults.bus.outage_waits"] == 1


class TestNetworkFaults:
    def test_packet_loss_retransmits(self):
        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="packet_loss", target="net",
                      duration=1000.0, magnitude=0.9))
        FaultInjector(plan, seed=1).install(sim)
        tree = FatTree(sim, 4)
        network = Network(tree)
        run_proc(sim, network.transfer(0, 1, 1 * MB))
        assert sim.faults.counters["faults.net.retransmits"] >= 1

    def test_link_flap_delays_endpoint(self):
        sim = Simulator()
        plan = FaultPlan.of(
            FaultSpec(kind="link_flap", target="net.host1",
                      at=0.0, duration=0.25))
        FaultInjector(plan).install(sim)
        tree = FatTree(sim, 4)
        network = Network(tree)

        def proc():
            yield sim.timeout(0.01)
            yield from network.transfer(0, 1, 64 * KB)

        run_proc(sim, proc())
        assert sim.now > 0.25
        assert sim.faults.counters["faults.net.flap_waits"] == 1


# ---------------------------------------------------------------------------
# The taxonomy in docs/FAULTS.md
# ---------------------------------------------------------------------------

FAULTS_MD = Path(__file__).resolve().parents[1] / "docs" / "FAULTS.md"

#: One small cell per kind, on an architecture that has the target.
TAXONOMY_CELLS = {
    "media_error": ("active", {"target": "disk.0"}),
    "latent_sector_error": ("active", {"target": "disk.0"}),
    "drive_failure": ("active", {"target": "disk.1", "at": 0.05}),
    "drive_slowdown": ("active", {"target": "disk.*", "duration": 10.0,
                                  "magnitude": 3.0}),
    "bus_transient": ("active", {"target": "bus.*", "duration": 10.0,
                                 "magnitude": 0.5}),
    "loop_outage": ("active", {"target": "bus.*", "duration": 0.05}),
    "packet_loss": ("cluster", {"target": "net", "duration": 10.0,
                                "magnitude": 0.2}),
    "link_flap": ("cluster", {"target": "net.host0", "duration": 0.05}),
    "disklet_crash": ("active", {"target": "diskos.0", "at": 0.01}),
    "stream_stall": ("active", {"target": "diskos.*", "duration": 0.05}),
}


def taxonomy_row(kind):
    """The ``who recovers`` cell of ``kind``'s taxonomy row."""
    for line in FAULTS_MD.read_text(encoding="utf-8").splitlines():
        if line.startswith(f"| `{kind}` |"):
            return line.split("|")[4]
    raise AssertionError(f"docs/FAULTS.md has no taxonomy row for {kind}")


def documented_counters(who):
    """Counter names in a cell; ``faults.a.b/c`` names ``faults.a.b``
    and ``faults.a.c``."""
    names = []
    for token in re.findall(r"`(faults\.[^`]+)`", who):
        first, *rest = token.split("/")
        prefix = first.rsplit(".", 1)[0]
        names.append(first)
        names.extend(f"{prefix}.{name.lstrip('.')}" for name in rest)
    return names


class TestTaxonomyCounters:
    def test_every_kind_has_a_cell(self):
        assert set(TAXONOMY_CELLS) == FAULT_KINDS

    @pytest.mark.parametrize("kind", sorted(FAULT_KINDS))
    def test_documented_counters_are_produced(self, kind):
        who = taxonomy_row(kind)
        documented = documented_counters(who)
        if kind == "drive_slowdown":
            assert who.strip().startswith("nobody") and not documented
        else:
            assert documented, f"{kind}: the row names no counter"
        arch, fields = TAXONOMY_CELLS[kind]
        plan = FaultPlan.of(FaultSpec(kind=kind, **fields), seed=7)
        result = run_task(config_for(arch, 4), "sort", 1 / 1024,
                          fault_plan=plan)
        produced = {name for name, value in result.extras.items()
                    if name.startswith("faults.") and value > 0}
        required = {f"faults.injected.{kind}", *documented}
        assert required <= produced, sorted(required - produced)
