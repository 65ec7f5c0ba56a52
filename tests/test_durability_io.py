"""Tests for the durability seam: plans, the fault-injecting IO layer,
and how the journal/artifact stack reacts to injected filesystem
failures (ENOSPC aborts, one-shot EIO retries, failed renames, lying
fsyncs)."""

import errno
import os

import pytest

from repro.durability import (
    DurabilityPlan,
    DurabilitySpec,
    FaultyIO,
    REAL_IO,
    current_io,
    io_scope,
)
from repro.experiments.artifacts import atomic_write_text
from repro.experiments.journal import JournalWriteError, SweepJournal


# -------------------------------------------------------------------- plans
class TestDurabilityPlan:
    def test_round_trip(self, tmp_path):
        plan = DurabilityPlan.of(
            DurabilitySpec(kind="enospc", target="*.journal.jsonl",
                           after=3),
            DurabilitySpec(kind="eio", probability=0.1, limit=1),
            DurabilitySpec(kind="short_write", magnitude=7.0, limit=1),
            DurabilitySpec(kind="fsync_lie"),
            DurabilitySpec(kind="rename_fail", target="*.txt"),
            seed=7)
        path = str(tmp_path / "plan.json")
        plan.to_file(path)
        loaded = DurabilityPlan.from_file(path)
        assert loaded == plan
        assert loaded.seed == 7

    def test_to_dict_omits_defaults(self):
        spec = DurabilitySpec(kind="fsync_lie")
        assert spec.to_dict() == {"kind": "fsync_lie"}

    @pytest.mark.parametrize("kwargs", [
        {"kind": "nope"},
        {"kind": "eio", "target": ""},
        {"kind": "eio", "probability": 0.0},
        {"kind": "eio", "probability": 1.5},
        {"kind": "eio", "after": -1},
        {"kind": "eio", "limit": -1},
        {"kind": "short_write", "magnitude": 1.5},
        {"kind": "eio", "magnitude": 4.0},   # only short_write takes one
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DurabilitySpec(**kwargs)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown durability spec"):
            DurabilitySpec.from_dict({"kind": "eio", "frequency": 2})
        with pytest.raises(ValueError, match="unknown durability plan"):
            DurabilityPlan.from_dict({"seed": 0, "chaos": []})

    def test_matches_ops_and_patterns(self):
        spec = DurabilitySpec(kind="rename_fail", target="*.txt")
        assert spec.matches("replace", "/a/b/report.txt")
        assert not spec.matches("replace", "/a/b/report.csv")
        assert not spec.matches("write", "/a/b/report.txt")


# ------------------------------------------------------------------ the seam
class TestIoScope:
    def test_scope_restores_on_exit_and_error(self):
        layer = FaultyIO(DurabilityPlan.of())
        assert current_io() is REAL_IO
        with io_scope(layer):
            assert current_io() is layer
        assert current_io() is REAL_IO
        with pytest.raises(RuntimeError):
            with io_scope(layer):
                raise RuntimeError("boom")
        assert current_io() is REAL_IO


class TestArtifactMode:
    @pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o027, 0o640)],
                             ids=["022", "027"])
    def test_atomic_write_takes_the_umask(self, tmp_path, umask, mode):
        previous = os.umask(umask)
        try:
            atomic_write_text(str(tmp_path / "fig.csv"), "a,b\n")
        finally:
            os.umask(previous)
        assert os.stat(tmp_path / "fig.csv").st_mode & 0o777 == mode
        assert os.listdir(tmp_path) == ["fig.csv"]


# ----------------------------------------------------------- fault injection
def _run_journal(path, keys=("a", "b", "c")):
    with SweepJournal.load(path) as journal:
        for key in keys:
            journal.note_cell(key, "pending", spec={}, config_hash="x")


class TestFaultyIO:
    def test_deterministic_across_instances(self, tmp_path):
        plan = DurabilityPlan.of(
            DurabilitySpec(kind="eio", probability=0.5), seed=11)
        stats = []
        for attempt in range(2):
            path = str(tmp_path / f"j{attempt}.journal.jsonl")
            faulty = FaultyIO(plan)
            with io_scope(faulty):
                try:
                    _run_journal(path, keys=tuple("abcdefgh"))
                except JournalWriteError:
                    pass
            stats.append(dict(faulty.stats))
        assert stats[0] == stats[1]

    def test_enospc_aborts_cleanly_no_half_record(self, tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")
        plan = DurabilityPlan.of(
            DurabilitySpec(kind="enospc", target="*.journal.jsonl",
                           after=2))
        with io_scope(FaultyIO(plan)):
            with pytest.raises(JournalWriteError) as excinfo:
                _run_journal(path)
        assert excinfo.value.__cause__.errno == errno.ENOSPC
        assert "(injected" in str(excinfo.value.__cause__)
        # The journal is left well-formed: complete records only.
        # (The create counts as one eligible op, so the append of "b"
        # is the third eligible op and hits the full disk.)
        loaded = SweepJournal.load(path)
        assert loaded.torn_lines == 0
        assert set(loaded.cells) == {"a"}
        # ... and the disk "recovering" lets the survivors resume.
        _run_journal(path, keys=("b", "c"))
        assert set(SweepJournal.load(path).cells) == {"a", "b", "c"}

    def test_one_shot_eio_is_retried_transparently(self, tmp_path):
        clean = str(tmp_path / "clean.journal.jsonl")
        _run_journal(clean)
        flaky = str(tmp_path / "flaky.journal.jsonl")
        plan = DurabilityPlan.of(
            DurabilitySpec(kind="eio", target="flaky.journal.jsonl",
                           after=1, limit=1))
        faulty = FaultyIO(plan)
        with io_scope(faulty):
            _run_journal(flaky)  # must NOT raise: the retry absorbs it
        assert faulty.stats == {"eio": 1}
        with open(clean, "rb") as handle:
            reference = handle.read()
        with open(flaky, "rb") as handle:
            survived = handle.read()
        # No duplicate record, no torn fragment: byte-identical logs.
        assert survived == reference

    def test_short_write_retry_leaves_no_fragment(self, tmp_path):
        clean = str(tmp_path / "clean.journal.jsonl")
        _run_journal(clean)
        torn = str(tmp_path / "torn.journal.jsonl")
        plan = DurabilityPlan.of(
            DurabilitySpec(kind="short_write",
                           target="torn.journal.jsonl", after=1,
                           limit=1, magnitude=5.0))
        faulty = FaultyIO(plan)
        with io_scope(faulty):
            _run_journal(torn)
        assert faulty.stats == {"short_write": 1}
        with open(clean, "rb") as a, open(torn, "rb") as b:
            assert b.read() == a.read()

    def test_exhausted_retries_surface_journal_write_error(self, tmp_path):
        path = str(tmp_path / "dead.journal.jsonl")
        plan = DurabilityPlan.of(
            DurabilitySpec(kind="eio", target="dead.journal.jsonl"))
        with io_scope(FaultyIO(plan)):
            with pytest.raises(JournalWriteError):
                _run_journal(path)
        assert SweepJournal.load(path).torn_lines == 0

    def test_rename_fail_keeps_old_content_no_litter(self, tmp_path):
        path = str(tmp_path / "report.txt")
        atomic_write_text(path, "v1\n")
        plan = DurabilityPlan.of(
            DurabilitySpec(kind="rename_fail", target="report.txt",
                           limit=1))
        with io_scope(FaultyIO(plan)):
            with pytest.raises(OSError) as excinfo:
                atomic_write_text(path, "v2\n")
        assert excinfo.value.errno == errno.EIO
        with open(path) as handle:
            assert handle.read() == "v1\n"
        assert not [name for name in os.listdir(tmp_path)
                    if name.endswith(".tmp")]
        atomic_write_text(path, "v2\n")  # device recovered
        with open(path) as handle:
            assert handle.read() == "v2\n"

    def test_fsync_lie_then_lose_unsynced(self, tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")
        plan = DurabilityPlan.of(DurabilitySpec(kind="fsync_lie"))
        faulty = FaultyIO(plan)
        with io_scope(faulty):
            _run_journal(path)
        assert faulty.stats["fsync_lie"] >= 3
        # The file *looks* complete until the power cut reveals the lie.
        assert set(SweepJournal.load(path).cells) == {"a", "b", "c"}
        lost = faulty.lose_unsynced()
        assert list(lost) == [path] and lost[path] > 0
        assert os.path.getsize(path) == 0
        # An honest drive afterwards: the journal rebuilds cleanly.
        _run_journal(path)
        assert set(SweepJournal.load(path).cells) == {"a", "b", "c"}

    def test_limit_and_after_count_eligible_ops(self, tmp_path):
        path = str(tmp_path / "x.journal.jsonl")
        plan = DurabilityPlan.of(
            DurabilitySpec(kind="fsync_lie", after=1, limit=2))
        faulty = FaultyIO(plan)
        with io_scope(faulty):
            _run_journal(path, keys=tuple("abcdef"))
        assert faulty.stats == {"fsync_lie": 2}
