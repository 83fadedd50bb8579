"""The exported names of the packages callers import from, against a committed list.

An export added or dropped shows up as a one-line diff to ``PUBLIC_API``
below, where a reviewer sees it; nothing else checks the "no new public
name" ground rule of the simplification issues.
"""

import importlib

import pytest

PUBLIC_API = {
    "repro": [
        "CarouselCode",
        "ChaosSchedule",
        "Cluster",
        "DecodingError",
        "DistributedFileSystem",
        "ErasureCode",
        "FaultModel",
        "GalloperCode",
        "HealthMonitor",
        "LRCStructure",
        "MetricsRegistry",
        "PerformanceAwarePlacement",
        "PyramidCode",
        "RandomPlacement",
        "ReedSolomonCode",
        "RepairManager",
        "RepairPlan",
        "ReplicationCode",
        "ResilientBlockClient",
        "RetryPolicy",
        "RotatedPyramidCode",
        "RoundRobinPlacement",
        "Server",
        "VirtualClock",
        "__version__",
        "assign_weights",
        "generate_schedules",
    ],
    "repro.storage": [
        "BlockStore",
        "BlockUnavailableError",
        "CLOSED",
        "Counter",
        "DistributedFileSystem",
        "EncodedFile",
        "FileSystemError",
        "HALF_OPEN",
        "HealthMonitor",
        "LeaseTable",
        "MetricsRegistry",
        "OPEN",
        "RecoveryOutcome",
        "RepairAdmissionController",
        "RepairManager",
        "RepairReport",
        "ResilientBlockClient",
        "RetryPolicy",
        "ScrubReport",
        "Scrubber",
        "ServerHealth",
        "ServerRepairReport",
        "StorageError",
        "StripedFileMeta",
        "StripedFileSystem",
        "StripedInputFormat",
        "TransientReadError",
        "pipeline",
        "simulate_server_recovery",
    ],
    "repro.serving": [
        "FlashCrowd",
        "FrequencySketch",
        "GatewayConfig",
        "HotBlockCache",
        "RequestCoalescer",
        "ServingError",
        "ServingGateway",
        "TenantLease",
        "TenantThrottle",
        "WorkloadGenerator",
        "WorkloadResult",
        "WorkloadSpec",
        "file_payload",
        "populate",
    ],
    "repro.faults": [
        "CLEAN",
        "ChaosRunner",
        "ChaosSchedule",
        "FaultComponent",
        "FaultDecision",
        "FaultModel",
        "FaultStats",
        "GraySlowdown",
        "LatencySpikes",
        "SilentCorruption",
        "TransientErrors",
        "VirtualClock",
        "bound_concurrent_crashes",
        "generate_schedule",
        "generate_schedules",
    ],
    "repro.sim": [
        "SimFuture",
        "SimLoop",
        "SimTask",
        "Simulation",
        "SimulationError",
        "SlotResource",
        "ThroughputResource",
    ],
}


@pytest.mark.parametrize("module", PUBLIC_API)
def test_exports_match_the_committed_list(module):
    exported = importlib.import_module(module).__all__
    assert len(set(exported)) == len(exported), "duplicate name in __all__"
    assert sorted(exported) == PUBLIC_API[module]


@pytest.mark.parametrize("module", PUBLIC_API)
def test_every_export_resolves(module):
    package = importlib.import_module(module)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []
