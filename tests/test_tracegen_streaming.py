"""Streaming tracegen: parity with materialization, byte-level guards.

The tracegen refactor made per-worker traces lazy generators and added
session-level interleaving and O(1)-memory folds. These tests pin the
contract: streaming changes *how* records are produced, never *what*
is produced — per-record, per-total, and all the way out to the
checked-in Figure 1 artifact bytes.
"""

import pytest

from repro.experiments import ARCHITECTURES, config_for
from repro.tracegen import (
    fold_totals,
    interleave_records,
    session_totals,
    session_trace,
    stream_worker_trace,
    trace_totals,
    worker_trace,
)
from repro.workloads import build_program, registered_tasks

SCALE = 1 / 256
WORKERS = 4


def programs_for(arch):
    machine = config_for(arch, WORKERS)
    return {task: build_program(task, machine, SCALE)
            for task in registered_tasks()}


class TestStreamParity:
    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_streamed_records_match_materialized(self, arch):
        """Every task x worker: the lazy stream yields the exact record
        sequence the eager path yields."""
        for task, program in programs_for(arch).items():
            for worker in range(WORKERS):
                eager = list(worker_trace(program, worker, WORKERS))
                lazy = list(stream_worker_trace(program, worker, WORKERS))
                assert lazy == eager, (task, worker)

    def test_worker_trace_is_lazy(self):
        program = programs_for("active")["select"]
        stream = worker_trace(program, 0, WORKERS)
        assert iter(stream) is stream   # a generator, not a list
        next(stream)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_trace_totals_equal_fold_of_stream(self, arch):
        for task, program in programs_for(arch).items():
            folded = fold_totals(stream_worker_trace(program, 0, WORKERS))
            assert folded == trace_totals(program, 0, WORKERS), task


class TestSessionStreams:
    def test_session_totals_sum_per_worker_totals(self):
        program = programs_for("active")["sort"]
        summed = None
        for worker in range(WORKERS):
            summed = fold_totals(worker_trace(program, worker, WORKERS),
                                 summed)
        session = session_totals(program, WORKERS)
        # Byte and record counters are integers and must match exactly;
        # compute seconds are summed in interleaved order, so only
        # float associativity separates the two.
        for key in ("records", "read_bytes", "write_bytes", "peer_bytes",
                    "frontend_bytes"):
            assert session[key] == summed[key], key
        assert session["compute_seconds"] == pytest.approx(
            summed["compute_seconds"], rel=1e-12)

    def test_interleave_is_fair_round_robin(self):
        streams = [iter([1, 2]), iter([10]), iter([100, 200, 300])]
        assert list(interleave_records(streams)) == [1, 10, 100, 2, 200,
                                                     300]

    def test_interleave_empty(self):
        assert list(interleave_records([])) == []

    def test_session_trace_interleaves_all_workers(self):
        program = programs_for("active")["select"]
        records = list(session_trace(program, WORKERS))
        per_worker = sum(
            trace_totals(program, worker, WORKERS)["records"]
            for worker in range(WORKERS))
        assert len(records) == per_worker
        total = fold_totals(records)
        assert total["records"] == len(records)


class TestFig1ByteIdentity:
    def test_fig1_artifact_bytes_unchanged_by_streaming(
            self, quick_fig1_identity):
        """The streaming refactor must not move a single byte of the
        checked-in Figure 1 baseline."""
        report = quick_fig1_identity
        assert report["identical"] is True
        assert report["cells"] > 0
