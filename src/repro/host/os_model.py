"""Host operating-system cost model.

Howsim charges fixed costs for the OS operations on a request's path;
the paper measured them with lmbench on a 300 MHz Pentium II running
Linux: 10 us per read/write system call, 103 us per context switch, and a
fixed 16 us to queue an I/O request at the device driver. Interrupt
service is charged at half a context switch (the paper folds it into the
switch figure; we keep it separate so ablations can vary it).

Costs scale with CPU speed the same way user traces do: a 450 MHz
front-end pays 300/450 of the measured times.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["OSParams", "LINUX_PII_300", "scaled_os_params"]


@dataclass(frozen=True)
class OSParams:
    """Fixed OS operation costs, in seconds, at ``measured_mhz``."""

    syscall: float = 10e-6          # read()/write() entry+exit
    context_switch: float = 103e-6
    driver_queue: float = 16e-6     # enqueue one request at the driver
    interrupt: float = 51.5e-6      # I/O completion interrupt service
    measured_mhz: float = 300.0

    def at_mhz(self, mhz: float) -> "OSParams":
        """The same OS on a CPU running at ``mhz``."""
        if mhz <= 0:
            raise ValueError(f"CPU speed must be positive, got {mhz}")
        factor = self.measured_mhz / mhz
        return OSParams(
            syscall=self.syscall * factor,
            context_switch=self.context_switch * factor,
            driver_queue=self.driver_queue * factor,
            interrupt=self.interrupt * factor,
            measured_mhz=mhz,
        )

    def io_submit_cost(self) -> float:
        """CPU cost to issue one asynchronous I/O request."""
        return self.syscall + self.driver_queue

    def io_complete_cost(self) -> float:
        """CPU cost to take the completion interrupt and wake the waiter."""
        return self.interrupt + self.context_switch


#: The paper's measured numbers (lmbench, 300 MHz Pentium II, Linux).
LINUX_PII_300 = OSParams()


def scaled_os_params(mhz: float) -> OSParams:
    """The standard OS cost set scaled to a CPU at ``mhz``."""
    return LINUX_PII_300.at_mhz(mhz)
