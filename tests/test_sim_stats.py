"""Unit tests for measurement helpers."""

import pytest

from repro.sim import BusyTracker, Counter


class TestCounter:
    def test_add_default(self):
        counter = Counter("c")
        counter.add()
        counter.add(2.5)
        assert counter.value == 3.5


class TestBusyTracker:
    def test_charge_and_total(self):
        tracker = BusyTracker("cpu")
        tracker.charge("compute", 3.0)
        tracker.charge("io", 1.0)
        tracker.charge("compute", 2.0)
        assert tracker.total() == pytest.approx(6.0)
        assert tracker.buckets["compute"] == pytest.approx(5.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            BusyTracker().charge("x", -1.0)

    def test_fractions_sum_to_one(self):
        tracker = BusyTracker()
        tracker.charge("a", 1.0)
        tracker.charge("b", 3.0)
        fractions = tracker.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["b"] == pytest.approx(0.75)

    def test_fractions_empty(self):
        assert BusyTracker().fractions() == {}
