"""Disk-drive specifications used in the paper's experiments.

Two drives appear in the paper:

* **Seagate ST39102** (Cheetah 9LP family) — the baseline drive in every
  configuration: 10,025 RPM, 14.5-21.3 MB/s formatted media rate, average
  seek 5.4 ms read / 6.2 ms write, maximum seek 12.2 ms / 13.2 ms.
* **Hitachi DK3E1T-91** — the "Fast Disk" upgrade in Figure 3: 12,030 RPM,
  18.3-27.3 MB/s media rate, average seek 5 ms / 6 ms, maximum
  10.5 ms / 11.5 ms.

Numbers quoted by the paper are used verbatim; remaining geometry values
(cylinder count, head count, cache organization) come from the published
product manuals for the drive families.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["DriveSpec", "SEAGATE_ST39102", "HITACHI_DK3E1T91", "fast_variant"]

MB = 1_000_000
SECTOR_BYTES = 512


@dataclass(frozen=True)
class DriveSpec:
    """Static description of a disk drive model.

    Attributes
    ----------
    media_rate_min / media_rate_max:
        Formatted media transfer rate in bytes/s at the innermost and
        outermost zones.
    seek_avg_read / seek_avg_write / seek_max_read / seek_max_write:
        Seek figures in seconds, as published.
    seek_track_to_track:
        Single-cylinder seek, seconds.
    cache_bytes / cache_segments:
        On-drive buffer size and its segmentation.
    bus_rate:
        Drive interface burst rate in bytes/s (Ultra2 SCSI / FC).
    controller_overhead:
        Fixed command processing time charged per request, seconds.
    """

    name: str
    rpm: float
    cylinders: int
    heads: int
    media_rate_min: float
    media_rate_max: float
    seek_avg_read: float
    seek_avg_write: float
    seek_max_read: float
    seek_max_write: float
    seek_track_to_track: float = 0.8e-3
    cache_bytes: int = 1_024 * 1_024
    cache_segments: int = 8
    bus_rate: float = 80 * MB
    controller_overhead: float = 0.3e-3
    sector_bytes: int = SECTOR_BYTES
    zones: int = 10

    def __post_init__(self) -> None:
        for attr in ("rpm", "media_rate_min", "media_rate_max", "bus_rate"):
            if getattr(self, attr) <= 0:
                raise ValueError(
                    f"{self.name}: {attr} must be positive, "
                    f"got {getattr(self, attr)}")
        for attr in ("cylinders", "heads", "sector_bytes"):
            if getattr(self, attr) < 1:
                raise ValueError(
                    f"{self.name}: {attr} must be >= 1, "
                    f"got {getattr(self, attr)}")
        for attr in ("seek_avg_read", "seek_avg_write", "seek_max_read",
                     "seek_max_write", "seek_track_to_track",
                     "controller_overhead"):
            if getattr(self, attr) < 0:
                raise ValueError(
                    f"{self.name}: {attr} must be >= 0, "
                    f"got {getattr(self, attr)}")
        if self.media_rate_max < self.media_rate_min:
            raise ValueError(
                f"{self.name}: media_rate_max ({self.media_rate_max}) below "
                f"media_rate_min ({self.media_rate_min}) — outer zones are "
                f"the fast ones")
        if self.cache_bytes < 0:
            raise ValueError(
                f"{self.name}: cache_bytes must be >= 0, got {self.cache_bytes}")
        if self.cache_segments < 1:
            raise ValueError(
                f"{self.name}: cache_segments must be >= 1, "
                f"got {self.cache_segments}")
        if not 1 <= self.zones <= self.cylinders:
            raise ValueError(
                f"{self.name}: zones must be in [1, cylinders], "
                f"got {self.zones}")

    @property
    def revolution_time(self) -> float:
        """Seconds per platter revolution."""
        return 60.0 / self.rpm

    @property
    def avg_rotational_latency(self) -> float:
        """Expected rotational delay for a random request: half a rev."""
        return self.revolution_time / 2.0

    def media_rate_at(self, fraction: float) -> float:
        """Media rate at radial position ``fraction`` (0 = outer, 1 = inner).

        Outer tracks are longer and therefore faster; the rate interpolates
        linearly between the published max (outer) and min (inner).
        """
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"radial fraction out of range: {fraction}")
        return self.media_rate_max + fraction * (
            self.media_rate_min - self.media_rate_max)

    def sectors_per_track_at(self, fraction: float) -> int:
        """Sectors per track at radial ``fraction``, from the media rate."""
        rate = self.media_rate_at(fraction)
        bytes_per_rev = rate * self.revolution_time
        return max(1, int(bytes_per_rev // self.sector_bytes))

    @property
    def capacity_bytes(self) -> int:
        """Total formatted capacity implied by the zone layout."""
        total_sectors = 0
        cyls_per_zone = self.cylinders // self.zones
        for zone in range(self.zones):
            fraction = (zone + 0.5) / self.zones
            spt = self.sectors_per_track_at(fraction)
            total_sectors += spt * self.heads * cyls_per_zone
        return total_sectors * self.sector_bytes


#: Baseline drive for every configuration in the paper (Section 2.1).
SEAGATE_ST39102 = DriveSpec(
    name="Seagate ST39102 (Cheetah 9LP)",
    rpm=10_025,
    cylinders=6_962,
    heads=12,
    media_rate_min=14.5 * MB,
    media_rate_max=21.3 * MB,
    seek_avg_read=5.4e-3,
    seek_avg_write=6.2e-3,
    seek_max_read=12.2e-3,
    seek_max_write=13.2e-3,
    seek_track_to_track=0.8e-3,
    cache_bytes=1_024 * 1_024,
    cache_segments=8,
    bus_rate=80 * MB,
)

#: "Fast Disk" upgrade used in Figure 3.
HITACHI_DK3E1T91 = DriveSpec(
    name="Hitachi DK3E1T-91",
    rpm=12_030,
    cylinders=6_720,
    heads=10,
    media_rate_min=18.3 * MB,
    media_rate_max=27.3 * MB,
    seek_avg_read=5.0e-3,
    seek_avg_write=6.0e-3,
    seek_max_read=10.5e-3,
    seek_max_write=11.5e-3,
    seek_track_to_track=0.7e-3,
    cache_bytes=1_024 * 1_024,
    cache_segments=8,
    bus_rate=80 * MB,
)


def fast_variant(spec: DriveSpec, speedup: float) -> DriveSpec:
    """A hypothetical drive scaled uniformly faster, for sensitivity runs."""
    if speedup <= 0:
        raise ValueError(f"speedup must be positive, got {speedup}")
    return replace(
        spec,
        name=f"{spec.name} (x{speedup:g})",
        rpm=spec.rpm * speedup,
        media_rate_min=spec.media_rate_min * speedup,
        media_rate_max=spec.media_rate_max * speedup,
        seek_avg_read=spec.seek_avg_read / speedup,
        seek_avg_write=spec.seek_avg_write / speedup,
        seek_max_read=spec.seek_max_read / speedup,
        seek_max_write=spec.seek_max_write / speedup,
        seek_track_to_track=spec.seek_track_to_track / speedup,
    )
