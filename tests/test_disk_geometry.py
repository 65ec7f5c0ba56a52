"""Unit + property tests for zoned disk geometry."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.disk import (
    HITACHI_DK3E1T91,
    SEAGATE_ST39102,
    DiskGeometry,
)

GEOMETRY = DiskGeometry(SEAGATE_ST39102)


class TestZoneTable:
    def test_zone_count_matches_spec(self):
        assert len(GEOMETRY.zones) == SEAGATE_ST39102.zones

    def test_zones_cover_all_cylinders(self):
        cylinders = 0
        for zone in GEOMETRY.zones:
            cylinders += zone.cylinder_count
        assert cylinders == SEAGATE_ST39102.cylinders

    def test_zones_are_contiguous(self):
        for prev, cur in zip(GEOMETRY.zones, GEOMETRY.zones[1:]):
            assert cur.first_cylinder == prev.last_cylinder + 1
            assert cur.first_lbn > prev.first_lbn

    def test_outer_zones_have_more_sectors(self):
        spts = [z.sectors_per_track for z in GEOMETRY.zones]
        assert spts == sorted(spts, reverse=True)
        assert spts[0] > spts[-1]

    def test_capacity_close_to_9gb(self):
        # The ST39102 is a 9.1 GB drive.
        assert 8.0e9 < GEOMETRY.capacity_bytes < 9.5e9

    def test_media_rate_bounds(self):
        outer = GEOMETRY.media_rate_at_lbn(0)
        inner = GEOMETRY.media_rate_at_lbn(GEOMETRY.total_sectors - 1)
        assert outer > inner
        assert inner >= SEAGATE_ST39102.media_rate_min * 0.95
        assert outer <= SEAGATE_ST39102.media_rate_max * 1.05


class TestTranslation:
    def test_lbn_zero_is_outer_cylinder_zero(self):
        assert GEOMETRY.lbn_to_chs(0) == (0, 0, 0)

    def test_out_of_range_lbn_rejected(self):
        with pytest.raises(ValueError):
            GEOMETRY.zone_of_lbn(GEOMETRY.total_sectors)
        with pytest.raises(ValueError):
            GEOMETRY.zone_of_lbn(-1)

    def test_bad_head_rejected(self):
        with pytest.raises(ValueError):
            GEOMETRY.chs_to_lbn(0, SEAGATE_ST39102.heads, 0)

    def test_bad_sector_rejected(self):
        spt = GEOMETRY.zones[0].sectors_per_track
        with pytest.raises(ValueError):
            GEOMETRY.chs_to_lbn(0, 0, spt)

    @given(st.integers(min_value=0, max_value=GEOMETRY.total_sectors - 1))
    @settings(max_examples=200)
    def test_roundtrip_lbn_chs_lbn(self, lbn):
        cylinder, head, sector = GEOMETRY.lbn_to_chs(lbn)
        assert GEOMETRY.chs_to_lbn(cylinder, head, sector) == lbn

    @given(st.integers(min_value=0, max_value=GEOMETRY.total_sectors - 1))
    @settings(max_examples=200)
    def test_chs_within_bounds(self, lbn):
        cylinder, head, sector = GEOMETRY.lbn_to_chs(lbn)
        zone = GEOMETRY.zone_of_lbn(lbn)
        assert zone.first_cylinder <= cylinder <= zone.last_cylinder
        assert 0 <= head < SEAGATE_ST39102.heads
        assert 0 <= sector < zone.sectors_per_track

    @given(st.integers(min_value=0, max_value=GEOMETRY.total_sectors - 2))
    @settings(max_examples=100)
    def test_lbn_order_follows_physical_order(self, lbn):
        c1, h1, s1 = GEOMETRY.lbn_to_chs(lbn)
        c2, h2, s2 = GEOMETRY.lbn_to_chs(lbn + 1)
        assert (c2, h2, s2) > (c1, h1, s1) or c2 > c1

    @given(st.integers(min_value=0, max_value=GEOMETRY.total_sectors - 1))
    @settings(max_examples=100)
    def test_angle_in_unit_interval(self, lbn):
        assert 0.0 <= GEOMETRY.angle_of(lbn) < 1.0


class TestBothDrives:
    @pytest.mark.parametrize("spec", [SEAGATE_ST39102, HITACHI_DK3E1T91],
                             ids=["seagate", "hitachi"])
    def test_geometry_builds(self, spec):
        geometry = DiskGeometry(spec)
        assert geometry.total_sectors > 0
        assert geometry.capacity_bytes == pytest.approx(
            spec.capacity_bytes, rel=0.01)

    def test_hitachi_is_faster(self):
        fast = DiskGeometry(HITACHI_DK3E1T91)
        slow = DiskGeometry(SEAGATE_ST39102)
        assert (fast.media_rate_at_lbn(0)
                > slow.media_rate_at_lbn(0))
