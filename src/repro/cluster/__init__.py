"""Cluster model: heterogeneous servers, placement, failures."""

from repro.cluster.failure import FailureEvent, poisson_failure_trace
from repro.cluster.placement import (
    CopysetPlacement,
    GroupAwarePlacement,
    PerformanceAwarePlacement,
    PlacementError,
    PlacementPolicy,
    RackAwarePlacement,
    RandomPlacement,
    RoundRobinPlacement,
    SpreadPlacement,
)
from repro.cluster.server import GB, MB, Server
from repro.cluster.topology import DEFAULT_BLOCK_SIZE, Cluster, ClusterError

__all__ = [
    "FailureEvent",
    "poisson_failure_trace",
    "CopysetPlacement",
    "GroupAwarePlacement",
    "PerformanceAwarePlacement",
    "PlacementError",
    "PlacementPolicy",
    "RackAwarePlacement",
    "RandomPlacement",
    "RoundRobinPlacement",
    "SpreadPlacement",
    "GB",
    "MB",
    "Server",
    "DEFAULT_BLOCK_SIZE",
    "Cluster",
    "ClusterError",
]
