"""The exported names of the packages callers import from, the options
of the entry points that carry them, and the public methods of the
storage classes, against committed lists.

An export added or dropped shows up as a one-line diff to ``PUBLIC_API``
below, an option added or dropped as a one-line diff to ``OPTIONS``, a
method as a one-line diff to ``METHODS``, a report field as a one-line
diff to ``FIELDS``,
where a reviewer sees it; nothing else checks the "no new public name,
option or constructor argument" ground rule of the simplification issues.
"""

import dataclasses
import importlib
import inspect

import pytest

PUBLIC_API = {
    "repro.analysis": [
        "AvailabilityReport",
        "HOURS_PER_YEAR",
        "ReliabilityParameters",
        "SurvivalProfile",
        "annual_loss_probability",
        "annual_repair_traffic_bytes",
        "availability",
        "average_repair_reads",
        "durability_nines",
        "mttdl_hours",
        "mttdl_years",
        "pattern_census",
        "survival_profile",
    ],
    "repro.reliability": [
        "CAMPAIGN_CODES",
        "ExponentialLifetime",
        "LifetimeModel",
        "ReliabilityConfig",
        "ReliabilityResult",
        "WeibullLifetime",
        "run_reliability_campaign",
        "run_validation",
        "simulate_reliability",
    ],
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
        "RepairAdmissionController",
        "RepairManager",
        "RepairReport",
        "ResilientBlockClient",
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
    "repro.storage:DistributedFileSystem": "cluster, fault_model",
    "repro.storage:RepairManager": "dfs",
    "repro.storage:ResilientBlockClient": "store, health, clock",
    "repro.storage:HealthMonitor": "clock, metrics",
    "repro.storage:Scrubber": "dfs",
    "repro.storage:ResilientBlockClient.get": "self, server_id, file_name, block_id",
    "repro.storage:BlockStore.get": "self, server_id, file_name, block_id",
    "repro.storage:BlockStore.timed_get": "self, server_id, file_name, block_id, verify",
    "repro.storage:RepairAdmissionController": "max_inflight_per_server, metrics",
    "repro.storage:RepairAdmissionController.acquire": "self, now, server_durations",
    "repro.sim:ThroughputResource": "sim, bandwidth",
    "repro.reliability:simulate_reliability": (
        "code, placement, config, num_racks, servers_per_rack, stripes, trials, seed, metrics"
    ),
    "repro.reliability:ReliabilityConfig": (
        "horizon_years, disk_lifetime, replacement_hours, "
        "rack_mtbf_hours, rack_downtime_hours, rack_kill_fraction, lse_rate_per_block_hour, "
        "scrub_interval_hours, block_size_bytes, repair_bandwidth, "
        "max_inflight_per_server, max_concurrent_repairs"
    ),
    "repro.serving:ServingGateway": "dfs, loop, config",
    "repro.serving:GatewayConfig": "cache_entries, hedge_threshold, max_inflight_per_tenant, tenant_limits",
    "repro.bench.chaos:run_schedule": "schedule, code_name, make_code, checkpoints, retry_rounds, retry_step",
    "repro.bench.chaos:run_campaign": "schedules, base_seed, checkpoints, horizon",
}

#: ``module:class`` -> its public methods (callable attributes without a
#: leading underscore), one per line so an addition or removal is one line.
METHODS = {
    "repro.storage:DistributedFileSystem": [
        "delete_file",
        "file",
        "list_files",
        "read_bytes",
        "read_file",
        "read_file_into",
        "read_stripes",
        "stripe_holders",
        "write_encoded",
        "write_file",
        "write_virtual_file",
    ],
    "repro.storage:StripedFileSystem": [
        "delete_file",
        "file",
        "list_files",
        "read_bytes",
        "read_file",
        "write_file",
    ],
    "repro.storage:EncodedFile": [
        "blocks_on_server",
        "server_of",
    ],
    "repro.storage:HealthMonitor": [
        "allow_request",
        "is_open",
        "rank",
        "record_error",
        "record_success",
        "score",
        "server",
        "snapshot",
        "state",
    ],
    "repro.storage:RepairManager": [
        "repair_all",
        "repair_block",
        "repair_blocks_bulk",
        "repair_server",
    ],
    "repro.storage:Scrubber": [
        "scrub",
        "scrub_file",
    ],
    "repro.codes.base:ReadPlan": [
        "compile",
        "runs_within",
    ],
}


#: ``module:class`` -> the public fields and properties of a result
#: dataclass, one per line.
FIELDS = {
    "repro.storage:RepairReport": [
        "block",
        "bytes_read",
        "bytes_read_by_server",
        "bytes_written",
        "cross_rack_bytes",
        "file",
        "helpers",
        "target_server",
    ],
    "repro.storage:ServerRepairReport": [
        "blocks_rebuilt",
        "bytes_read",
        "reports",
        "server",
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


@pytest.mark.parametrize("entry", OPTIONS)
def test_options_match_the_committed_list(entry):
    module, _, path = entry.partition(":")
    target = importlib.import_module(module)
    for name in path.split("."):
        target = getattr(target, name)
    assert ", ".join(inspect.signature(target).parameters) == OPTIONS[entry]


@pytest.mark.parametrize("entry", METHODS)
def test_public_methods_match_the_committed_list(entry):
    module, _, name = entry.partition(":")
    cls = getattr(importlib.import_module(module), name)
    public = [attr for attr in dir(cls) if not attr.startswith("_") and callable(getattr(cls, attr))]
    assert public == METHODS[entry]


@pytest.mark.parametrize("entry", FIELDS)
def test_result_fields_match_the_committed_list(entry):
    module, _, name = entry.partition(":")
    cls = getattr(importlib.import_module(module), name)
    fields = [f.name for f in dataclasses.fields(cls)]
    properties = [attr for attr, value in vars(cls).items() if isinstance(value, property)]
    assert sorted(fields + properties) == FIELDS[entry]
