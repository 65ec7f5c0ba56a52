"""Host-side models: CPUs, OS costs and the SMP's remote queues."""

from .cpu import REFERENCE_MHZ, Cpu
from .os_model import LINUX_PII_300, OSParams, scaled_os_params
from .remote_queue import RemoteQueue

__all__ = [
    "Cpu", "REFERENCE_MHZ",
    "OSParams", "LINUX_PII_300", "scaled_os_params",
    "RemoteQueue",
]
