"""Tests for the Figure 1 byte-identity guard.

The guard regenerates Figure 1 and byte-compares it against the
checked-in ``results/fig1_arch_comparison.csv``. These tests pin down
its contract: the baseline's format, a matching regeneration passing,
and both ways a regeneration can drift (a differing line, or a line
count that differs while every shared line matches).
"""

import pytest

from repro.experiments import (
    FIG1_BASELINE,
    IdentityDrift,
    fig1_identity_check,
)


class TestIdentityGuard:
    def test_baseline_file_exists_with_crlf(self):
        data = FIG1_BASELINE.read_bytes()
        assert b"\r\n" in data
        header = data.split(b"\r\n", 1)[0]
        assert header.split(b",")[:4] == [b"figure", b"task", b"arch",
                                          b"disks"]

    @staticmethod
    def _sixteen_disk_lines(lines):
        return [lines[0]] + [
            line for line in lines[1:]
            if line and line.split(b",")[3] == b"16"]

    @classmethod
    def _stub_regeneration(cls, monkeypatch):
        # Replace the (expensive) sweep with a canned reproduction of
        # the baseline's 16-disk subset, so the comparison logic can be
        # exercised in milliseconds.
        from repro.experiments import export

        lines = export._baseline_lines()
        subset = cls._sixteen_disk_lines(lines) + [b""]
        canned = b"\r\n".join(subset).decode()
        monkeypatch.setattr(export, "run_fig1",
                            lambda sizes, scale: None)
        monkeypatch.setattr(export, "fig1_rows", lambda result: None)
        monkeypatch.setattr(export, "rows_to_csv", lambda rows: canned)
        return lines

    def test_matching_output_passes(self, monkeypatch):
        self._stub_regeneration(monkeypatch)
        report = fig1_identity_check(quick=True)
        assert report["identical"] is True
        assert report["cells"] == 24

    def test_drift_detection(self, monkeypatch):
        # Tamper with one baseline digit (in the elapsed column, past
        # everything the guard parses): the guard must raise, proving it
        # compares content rather than just running.
        from repro.experiments import export

        lines = self._stub_regeneration(monkeypatch)
        tampered = list(lines)
        fields = tampered[1].split(b",")
        fields[-1] = fields[-1] + b"1"
        tampered[1] = b",".join(fields)
        monkeypatch.setattr(export, "_baseline_lines", lambda: tampered)
        with pytest.raises(IdentityDrift, match="drifted"):
            fig1_identity_check(quick=True)

    def test_truncated_output_is_drift(self, monkeypatch):
        # A regeneration that stops after its 23rd row matches the
        # baseline subset line for line as far as it goes, so no single
        # line differs: the guard must still raise on the line count.
        from repro.experiments import export

        lines = self._stub_regeneration(monkeypatch)
        truncated = b"\r\n".join(self._sixteen_disk_lines(lines)[:-1])
        monkeypatch.setattr(export, "rows_to_csv",
                            lambda rows: truncated.decode())
        with pytest.raises(IdentityDrift,
                           match="24 lines regenerated vs 26 in the "
                                 "baseline subset"):
            fig1_identity_check(quick=True)

    def test_quick_identity_holds(self, quick_fig1_identity):
        # The real thing: regenerate the 16-disk column and byte-compare
        # against results/fig1_arch_comparison.csv.
        report = quick_fig1_identity
        assert report["identical"] is True
        assert report["cells"] == 24
