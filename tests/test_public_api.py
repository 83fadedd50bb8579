"""The exported names of the packages callers import from, and the options
of the entry points that carry them, against committed lists.

An export added or dropped shows up as a one-line diff to ``PUBLIC_API``
below, an option added or dropped as a one-line diff to ``OPTIONS``,
where a reviewer sees it; nothing else checks the "no new public name,
option or constructor argument" ground rule of the simplification issues.
"""

import importlib
import inspect

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
        "ThroughputResource",
    ],
    "repro.cluster": [
        "Cluster",
        "ClusterError",
        "CopysetPlacement",
        "DEFAULT_BLOCK_SIZE",
        "FailureEvent",
        "GB",
        "GroupAwarePlacement",
        "MB",
        "PerformanceAwarePlacement",
        "PlacementError",
        "PlacementPolicy",
        "RackAwarePlacement",
        "RandomPlacement",
        "RoundRobinPlacement",
        "Server",
        "SpreadPlacement",
        "poisson_failure_trace",
    ],
}

#: ``module:callable`` -> its parameter names, in order.
OPTIONS = {
    "repro.storage:DistributedFileSystem": "cluster, metrics, fault_model, clock, health, retry_policy",
    "repro.storage:RepairManager": "dfs, prefer_fast_helpers",
    "repro.storage:ResilientBlockClient.get": "self, server_id, file_name, block_id",
    "repro.storage:BlockStore.get": "self, server_id, file_name, block_id",
    "repro.storage:BlockStore.timed_get": "self, server_id, file_name, block_id, verify",
    "repro.storage:RetryPolicy": "max_attempts, base_delay, max_delay, jitter, read_timeout, hedge_threshold",
    "repro.storage:simulate_server_recovery": "code, lost_blocks, num_servers, block_bytes, disk_bandwidth, seed",
    "repro.serving:ServingGateway": "dfs, loop, config",
    "repro.serving:GatewayConfig": (
        "cache_entries, cache_sample_period, cache_hit_latency, request_overhead, hedge_threshold, "
        "max_inflight_per_tenant, tenant_limits, lease_estimate, slo"
    ),
    "repro.bench.chaos:run_schedule": "schedule, code_name, make_code, checkpoints, retry_rounds, retry_step",
    "repro.bench.chaos:run_campaign": "schedules, base_seed, checkpoints, horizon",
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


@pytest.mark.parametrize("entry", OPTIONS)
def test_options_match_the_committed_list(entry):
    module, _, path = entry.partition(":")
    target = importlib.import_module(module)
    for name in path.split("."):
        target = getattr(target, name)
    assert ", ".join(inspect.signature(target).parameters) == OPTIONS[entry]
