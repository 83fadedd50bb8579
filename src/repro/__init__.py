"""Galloper codes: parallelism-aware locally repairable codes.

Reproduction of J. Li and B. Li, "Parallelism-Aware Locally Repairable
Code for Distributed Storage Systems", ICDCS 2018.

The package is layered bottom-up:

* :mod:`repro.gf` — GF(2^q) arithmetic and linear algebra.
* :mod:`repro.codes` — baseline codes (Reed-Solomon, Pyramid, Carousel,
  replication, rotated-RAID).
* :mod:`repro.core` — Galloper codes and their weight assignment.
* :mod:`repro.sim` / :mod:`repro.cluster` / :mod:`repro.storage` — the
  simulated distributed storage system.
* :mod:`repro.mapreduce` — the MapReduce runtime (Hadoop analog).
* :mod:`repro.bench` — experiment harness regenerating the paper's
  figures.

Quickstart::

    from repro import GalloperCode, Cluster, DistributedFileSystem
    from repro.mapreduce import MapReduceRuntime, GalloperInputFormat
    from repro.mapreduce.workloads import wordcount_job, generate_text

    cluster = Cluster.homogeneous(8)
    dfs = DistributedFileSystem(cluster)
    dfs.write_file("demo", generate_text(100_000), code=GalloperCode(4, 2, 1))
    result = MapReduceRuntime(dfs).run(wordcount_job("demo"), GalloperInputFormat())
"""

from repro.cluster import Cluster, PerformanceAwarePlacement, RandomPlacement, RoundRobinPlacement, Server
from repro.codes import (
    CarouselCode,
    DecodingError,
    ErasureCode,
    LRCStructure,
    PyramidCode,
    ReedSolomonCode,
    RepairPlan,
    ReplicationCode,
    RotatedPyramidCode,
)
from repro.core import GalloperCode, assign_weights
from repro.faults import ChaosSchedule, FaultModel, VirtualClock, generate_schedules
from repro.storage import (
    DistributedFileSystem,
    HealthMonitor,
    MetricsRegistry,
    RepairManager,
    ResilientBlockClient,
)

__version__ = "1.0.0"

__all__ = [
    "Cluster",
    "PerformanceAwarePlacement",
    "RandomPlacement",
    "RoundRobinPlacement",
    "Server",
    "CarouselCode",
    "DecodingError",
    "ErasureCode",
    "LRCStructure",
    "PyramidCode",
    "ReedSolomonCode",
    "RepairPlan",
    "ReplicationCode",
    "RotatedPyramidCode",
    "GalloperCode",
    "assign_weights",
    "ChaosSchedule",
    "FaultModel",
    "VirtualClock",
    "generate_schedules",
    "DistributedFileSystem",
    "HealthMonitor",
    "MetricsRegistry",
    "RepairManager",
    "ResilientBlockClient",
    "__version__",
]
