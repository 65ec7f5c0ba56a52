"""The retry policy used by recovery code paths.

A small frozen dataclass, so it can be shared between components and
embedded in configs without aliasing surprises. All delays are in
simulated seconds. The interconnect buses (``interconnect/bus.py``)
and the switched network (``net/network.py``) retransmit by it.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff.

    ``delay(0)`` is the pause before the first retry; attempt ``k``
    waits ``base_delay * factor**k`` capped at ``max_delay``.
    """

    max_attempts: int = 4
    base_delay: float = 1e-3
    factor: float = 2.0
    max_delay: float = 0.1

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.base_delay < 0:
            raise ValueError(f"base_delay must be >= 0, got {self.base_delay}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if self.max_delay < self.base_delay:
            raise ValueError("max_delay must be >= base_delay")

    def delay(self, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        return min(self.base_delay * self.factor ** attempt, self.max_delay)

