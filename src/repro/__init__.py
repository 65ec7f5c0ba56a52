"""repro: a full reproduction of "Evaluation of Active Disks for Decision
Support Databases" (Uysal, Acharya, Saltz - HPCA 2000).

The package rebuilds the paper's entire experimental apparatus:

* :mod:`repro.sim` - the discrete-event kernel everything runs on;
* :mod:`repro.disk` - a DiskSim-style drive model (zoned geometry, seek
  curve, rotation, segmented cache);
* :mod:`repro.interconnect` - queue-based serial interconnects (FC-AL);
* :mod:`repro.net` - a Netsim-style switched-Ethernet fat-tree with
  MPI-like messaging;
* :mod:`repro.host` - CPUs, OS cost models, the SMP's remote queues;
* :mod:`repro.diskos` - the Active Disk runtime (streams, disklets,
  memory budget);
* :mod:`repro.arch` - the three machines (Active Disks, commodity
  cluster, ccNUMA SMP) executing common task programs, plus the cost
  model of Table 1;
* :mod:`repro.workloads` - Table 2 datasets, the eight decision-support
  tasks, reference algorithm implementations, the PipeHash planner;
* :mod:`repro.tracegen` - the analytic trace generator standing in for
  the paper's DEC Alpha trace capture;
* :mod:`repro.experiments` - drivers that regenerate every table and
  figure.

Quick start::

    from repro import run_task, config_for

    result = run_task(config_for("active", 64), "select", scale=1/16)
    print(result.elapsed, result.extras["fc_bytes"])
"""

from .arch import (
    ActiveDiskConfig,
    ActiveDiskMachine,
    ClusterConfig,
    ClusterMachine,
    RunResult,
    SMPConfig,
    SMPMachine,
    build_machine,
)
from .experiments import config_for, run_task
from .sim import Simulator
from .workloads import build_program, dataset_for, registered_tasks

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "ActiveDiskConfig", "ClusterConfig", "SMPConfig",
    "ActiveDiskMachine", "ClusterMachine", "SMPMachine",
    "build_machine", "build_program", "run_task", "config_for",
    "dataset_for", "registered_tasks", "RunResult",
    "__version__",
]
