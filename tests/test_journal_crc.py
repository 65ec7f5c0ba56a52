"""Tests for per-record journal CRCs and torn-tail recovery: every
appended line is checksummed, mid-file corruption is a hard error that
names the file and line, legacy CRC-less journals still load, and a
concurrent appender trims a crash-torn tail before writing."""

import json

import pytest

from repro.experiments.journal import (
    AppendLog,
    SweepJournal,
    record_crc,
)
from repro.service.jobs import JobQueue


def _write_journal(path, keys=("a", "b", "c")):
    with SweepJournal.load(path) as journal:
        for key in keys:
            journal.note_cell(key, "pending", spec={}, config_hash="x")
            journal.note_cell(key, "done", result={"elapsed": 1.5})


class TestRecordCrc:
    def test_every_line_carries_a_matching_crc(self, tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")
        _write_journal(path)
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle if line.strip()]
        assert lines
        for line in lines:
            record = json.loads(line)
            crc = record.pop("crc")
            assert crc == record_crc(record)

    def test_crc_survives_float_round_trip(self):
        record = {"kind": "cell", "key": "a", "status": "done",
                  "result": {"elapsed": 0.1 + 0.2, "x": 1 / 3}}
        reloaded = json.loads(json.dumps(record, sort_keys=True))
        assert record_crc(reloaded) == record_crc(record)

    def test_reloaded_result_keeps_key_order(self, tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")
        busy = {"sort": 1.0, "append": 2.0, "idle": 0.5}
        with SweepJournal.load(path) as journal:
            journal.note_cell("a", "done", result={"busy": busy})
        reloaded = SweepJournal.load(path).cells["a"].result["busy"]
        assert list(reloaded) == list(busy)

    def test_legacy_crc_less_records_are_accepted(self, tmp_path):
        path = str(tmp_path / "legacy.journal.jsonl")
        records = [
            {"kind": "cell", "key": "a", "status": "pending",
             "spec": {}, "config_hash": "x"},
            {"kind": "cell", "key": "a", "status": "done",
             "result": {"elapsed": 2.0}},
        ]
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:  # the pre-CRC on-disk format
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        loaded = SweepJournal.load(path)
        assert loaded.cells["a"].status == "done"

    def test_midfile_bitflip_is_a_hard_error_naming_the_line(self,
                                                             tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")
        _write_journal(path)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        # Flip a value inside line 2: still valid JSON, wrong CRC.
        assert '"done"' in lines[1]
        lines[1] = lines[1].replace('"done"', '"dome"')
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(ValueError, match=rf"{path}:2: .*CRC"):
            SweepJournal.load(path)

    def test_final_line_bitflip_is_still_a_hard_error(self, tmp_path):
        # A torn write can never yield parseable JSON with a wrong CRC,
        # so even the last line gets no torn-tail leniency.
        path = str(tmp_path / "sweep.journal.jsonl")
        _write_journal(path, keys=("a",))
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[-1] = lines[-1].replace('"done"', '"dome"')
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(ValueError, match="CRC"):
            SweepJournal.load(path)

    def test_midfile_garbage_still_raises(self, tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")
        _write_journal(path)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[1] = "}}} not json {{{\n"
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(ValueError, match="corrupt journal record"):
            SweepJournal.load(path)

    def test_jobqueue_records_are_checksummed_too(self, tmp_path):
        path = str(tmp_path / "jobs.jsonl")
        queue = JobQueue.load(path)
        queue.submit({"figure": "fig1"})
        queue.update("job-0001", "running")
        queue.close()
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                assert record.pop("crc") == record_crc(record)
        with open(path, encoding="utf-8") as handle:
            lines = handle.readlines()
        lines[0] = lines[0].replace('"queued"', '"Queued"')
        with open(path, "w", encoding="utf-8") as handle:
            handle.writelines(lines)
        with pytest.raises(ValueError, match="CRC"):
            JobQueue.load(path)


class TestTornTailRecovery:
    def test_torn_tail_plus_concurrent_appender(self, tmp_path):
        path = str(tmp_path / "sweep.journal.jsonl")
        _write_journal(path, keys=("a",))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write('{"kind": "cell", "key": "b", "sta')  # crash
        # A fresh appender (the "other process") must trim the fragment
        # before writing, so its record never concatenates onto it.
        with SweepJournal.load(path) as other:
            assert other.torn_lines == 1
            other.note_cell("c", "pending", spec={}, config_hash="x")
        loaded = SweepJournal.load(path)
        assert loaded.torn_lines == 0  # fragment gone for good
        assert set(loaded.cells) == {"a", "c"}
        with open(path, "rb") as handle:
            data = handle.read()
        assert data.endswith(b"\n")
        for line in data.decode("utf-8").splitlines():
            record = json.loads(line)  # every surviving line parses
            assert record.pop("crc") == record_crc(record)

    def test_torn_tail_under_the_fragment_size_of_a_crc(self, tmp_path):
        # Even a fragment that tears inside the crc field itself is
        # unparseable JSON, hence treated as torn, not corrupt.
        path = str(tmp_path / "sweep.journal.jsonl")
        _write_journal(path, keys=("a",))
        with open(path, "rb+") as handle:
            data = handle.read()
            handle.truncate(len(data) - 4)  # tear inside the last line
        loaded = SweepJournal.load(path)
        assert loaded.torn_lines == 1

    def test_append_log_requires_fold_override(self, tmp_path):
        with pytest.raises(NotImplementedError):
            AppendLog.load(str(tmp_path / "x.jsonl"))._fold({})
